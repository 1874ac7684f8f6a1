package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"columndisturb"
	"columndisturb/client"
	"columndisturb/internal/experiments"
)

// allExperiments is the whole registry, in ID order.
var allExperiments = func() []string {
	var ids []string
	for _, e := range columndisturb.ListExperiments() {
		ids = append(ids, e.ID)
	}
	return ids
}()

// cheapExperiments excludes the four expensive sweeps (fig10, fig11, fig15,
// fig22), so one request costs at most ~160 ms of serial compute and the
// serve and dispatch layers carry a visible share of its latency.
var cheapExperiments = func() []string {
	var ids []string
	for _, id := range allExperiments {
		switch id {
		case "fig10", "fig11", "fig15", "fig22":
		default:
			ids = append(ids, id)
		}
	}
	return ids
}()

var workloads = map[string]*workload{
	"sweep-cold": {
		clients:            func(int) int { return 1 },
		tracedOpsPerSecond: 0.25,
		build:              buildSweep,
		request:            sweepRequest,
		digestKeys: func(seed uint64, _ int) []reportKey {
			return keysOf(sweepRequest(seed, 0))
		},
	},
	"serve-mixed": {
		clients:            func(nproc int) int { return nproc },
		tracedOpsPerSecond: 40,
		prime:              primeServe,
		build:              buildServe,
		request:            serveRequest,
		digestKeys: func(seed uint64, _ int) []reportKey {
			return keysOf(hotRequest(seed))
		},
	},
	"fleet-cold": {
		clients:            func(int) int { return 1 },
		tracedOpsPerSecond: 8,
		build:              buildFleet,
		request:            fleetRequest,
		check:              checkFleet,
		digestKeys: func(seed uint64, n int) []reportKey {
			var keys []reportKey
			for i := 0; i < min(n, fleetDigestOps); i++ {
				keys = append(keys, keysOf(fleetRequest(seed, i))...)
			}
			return keys
		},
	},
}

// fleetDigestOps is how many leading fleet-cold operations the report
// digest covers.
const fleetDigestOps = 16

// --- input generation -------------------------------------------------

// splitmix64 is the generator behind every seeded choice.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// permuted returns element k of a seeded sequence over 0..n-1 in which
// every block of n consecutive elements is a permutation, so each choice
// appears equally often whatever the run length.
func permuted(seed, salt uint64, k, n int) int {
	block := uint64(k / n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	state := splitmix64(seed ^ salt<<48 ^ block<<1)
	for i := n - 1; i > 0; i-- {
		state = splitmix64(state)
		j := int(state % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[k%n]
}

// freshSeed is the experiment seed of operation i's miss: distinct for
// every operation and from the hot seed.
func freshSeed(seed uint64, i int) string {
	return strconv.FormatUint(seed*1_000_000+1+uint64(i), 10)
}

func request(ids []string, seed string, noCache bool) columndisturb.Request {
	return columndisturb.Request{
		Experiments: ids, Profile: "small",
		Overrides: map[string]string{"seed": seed}, NoCache: noCache,
	}
}

// sweepRequest is every experiment at the workload seed.
func sweepRequest(seed uint64, _ int) columndisturb.Request {
	return request(allExperiments, strconv.FormatUint(seed, 10), false)
}

// hotRequest is serve-mixed's primed hot set: every cheap experiment at
// the workload seed.
func hotRequest(seed uint64) columndisturb.Request {
	return request(cheapExperiments, strconv.FormatUint(seed, 10), false)
}

// serveMissEvery makes one operation in five a miss.
const serveMissEvery = 5

// serveRequest is one cheap experiment: in each block of five operations
// one, at a seeded position, carries a fresh seed (a cache miss) and the
// others come from the hot set (hits). Experiments are drawn in seeded
// permutations, separately for hits and misses.
func serveRequest(seed uint64, i int) columndisturb.Request {
	block, pos := i/serveMissEvery, i%serveMissEvery
	missPos := int(splitmix64(seed^uint64(block)<<8^0x5e) % serveMissEvery)
	misses := block
	if pos > missPos {
		misses++
	}
	n := len(cheapExperiments)
	if pos == missPos {
		return request([]string{cheapExperiments[permuted(seed, 1, misses, n)]}, freshSeed(seed, i), false)
	}
	return request([]string{cheapExperiments[permuted(seed, 2, i-misses, n)]}, strconv.FormatUint(seed, 10), false)
}

// fleetRequest is one cheap experiment with a fresh seed and no cache.
func fleetRequest(seed uint64, i int) columndisturb.Request {
	return request([]string{cheapExperiments[permuted(seed, 3, i, len(cheapExperiments))]}, freshSeed(seed, i), true)
}

// --- systems ----------------------------------------------------------

// buildSweep is an in-process runner with no cache and no WAL; Handler
// forces the lazily built service and worker pool into set-up.
func buildSweep(_ context.Context, e *env) (*system, error) {
	r, err := columndisturb.NewLocalRunner(columndisturb.LocalOptions{Workers: e.nproc})
	if err != nil {
		return nil, err
	}
	h, err := r.Handler()
	if err != nil {
		r.Close()
		return nil, err
	}
	return &system{
		local: r, handler: h, runners: []columndisturb.Runner{r}, workers: e.nproc,
		subscribe: func(_ int, fn func(columndisturb.Event)) func() { return r.Subscribe(fn) },
	}, nil
}

// buildServe is what `cdlab serve -cache-dir -wal` builds, on a loopback
// listener, with one remote client per closed-loop caller. Reopening the
// primed directories pays the cache scan and the WAL replay.
func buildServe(_ context.Context, e *env) (*system, error) {
	r, err := columndisturb.NewLocalRunner(columndisturb.LocalOptions{
		Workers: e.nproc, Dispatch: true, RetainJobs: 512,
		CacheDir: filepath.Join(e.dir, "cache"), WALDir: filepath.Join(e.dir, "wal"),
	})
	if err != nil {
		return nil, err
	}
	return serveOver(r, e.nproc, e.nproc)
}

// serveOver puts the runner's handler on a loopback listener and creates
// one remote client per caller.
func serveOver(r *columndisturb.LocalRunner, clients, workers int) (*system, error) {
	h, err := r.Handler()
	if err != nil {
		r.Close()
		return nil, err
	}
	s := &system{local: r, handler: h, workers: workers}
	if err := s.listen(); err != nil {
		r.Close()
		return nil, err
	}
	var remotes []*client.Runner
	for c := 0; c < clients; c++ {
		cl, err := client.New(s.addr, client.Options{HTTPClient: s.hc})
		if err != nil {
			s.close()
			return nil, err
		}
		remotes = append(remotes, cl)
		s.runners = append(s.runners, cl)
	}
	s.subscribe = func(c int, fn func(columndisturb.Event)) func() { return remotes[c].Subscribe(fn) }
	return s, nil
}

// primeServe fills the cache with the hot set on fresh directories; the
// timed set-ups then reopen them.
func primeServe(ctx context.Context, e *env) error {
	s, err := buildServe(ctx, e)
	if err != nil {
		return err
	}
	defer s.close()
	req := hotRequest(e.opts.seed)
	res, err := s.runners[0].Run(ctx, req)
	if !e.v.check(-1, req, res, err) {
		return fmt.Errorf("hot set: %s", e.v.failure(-1))
	}
	return nil
}

// fleetWorkers is the number of in-process workers, one slot each.
const fleetWorkers = 2

// buildFleet is a pure scheduler behind a loopback listener with two
// in-process workers; set-up ends once both are registered.
func buildFleet(ctx context.Context, e *env) (*system, error) {
	r, err := columndisturb.NewLocalRunner(columndisturb.LocalOptions{
		Workers: e.nproc, Dispatch: true, NoLocalShards: true, RetainJobs: 512,
	})
	if err != nil {
		return nil, err
	}
	s, err := serveOver(r, 1, fleetWorkers)
	if err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	s.stopWorker = cancel
	for w := 0; w < fleetWorkers; w++ {
		s.workerWG.Add(1)
		go func(w int) {
			defer s.workerWG.Done()
			_ = client.RunWorker(wctx, s.addr, client.WorkerOptions{
				Name: fmt.Sprintf("bench-%d", w), Capacity: 1, HTTPClient: s.hc,
			}) // returns the context error once stopped
		}(w)
	}
	cl := s.runners[0].(*client.Runner)
	deadline := time.Now().Add(30 * time.Second)
	for {
		ws, err := cl.Workers(ctx)
		if err == nil && len(ws) == fleetWorkers {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("workers did not register: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkFleet compares every fleet-cold report with a serial in-process
// run of the same experiment and seed.
func checkFleet(ctx context.Context, e *env, n int) error {
	idx := make(chan int)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				req := fleetRequest(e.opts.seed, i)
				key := keysOf(req)[0]
				got, ok := e.v.text(key)
				if !ok {
					continue // the operation failed before returning a report
				}
				want, err := reference(ctx, key)
				if err != nil {
					errMu.Lock()
					firstErr = err
					errMu.Unlock()
					continue
				}
				if got != want {
					e.v.fail(i, fmt.Sprintf("%s seed %s: report differs from the serial in-process reference", key.Experiment, key.Seed))
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return firstErr
}

// reference renders one experiment serially in-process.
func reference(ctx context.Context, k reportKey) (string, error) {
	exp, ok := experiments.ByID(k.Experiment)
	if !ok {
		return "", fmt.Errorf("unknown experiment %s", k.Experiment)
	}
	cfg, err := experiments.ResolveConfig("small", map[string]string{"seed": k.Seed})
	if err != nil {
		return "", err
	}
	res, err := exp.RunWith(ctx, cfg, 1, nil)
	if err != nil {
		return "", err
	}
	return res.String(), nil
}
