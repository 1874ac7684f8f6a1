package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"columndisturb"
)

// setupReps is how many times a run builds the system under test; setup_s
// is the median, and the last build serves the measured operations. Single
// builds scatter widely (sweep-cold's takes microseconds), so the median
// needs many of them to repeat from run to run.
const setupReps = 101

// workload is one named traffic mix. Every input is a pure function of the
// workload seed and the operation index, so client interleaving never
// changes what an operation asks for.
type workload struct {
	// clients is the number of closed-loop callers.
	clients func(nproc int) int
	// tracedOpsPerSecond sets a traced run's fixed operation count:
	// ceil(tracedOpsPerSecond × seconds), at least two.
	tracedOpsPerSecond float64
	// build sets up the system under test; its wall time is setup_s.
	build func(ctx context.Context, e *env) (*system, error)
	// prime, when set, runs once before the timed set-ups.
	prime func(ctx context.Context, e *env) error
	// request is operation i's input.
	request func(seed uint64, i int) columndisturb.Request
	// check, when set, verifies the reports of operations 0..n-1 after the
	// timed region, outside setup_s.
	check func(ctx context.Context, e *env, n int) error
	// digestKeys names the reports the workload digest covers, given the
	// number of operations that ran.
	digestKeys func(seed uint64, n int) []reportKey
}

// env is one run's shared state.
type env struct {
	opts  options
	nproc int
	dir   string
	v     *verifier
}

// system is one set-up instance of the program under test.
type system struct {
	local   *columndisturb.LocalRunner
	handler http.Handler
	// runners holds one Runner per client.
	runners []columndisturb.Runner
	// subscribe attaches an event observer to client c's runner.
	subscribe func(c int, fn func(columndisturb.Event)) (stop func())
	// workers is the backend's parallel slot count (engine.utilization).
	workers int

	addr       string
	srv        *http.Server
	served     chan struct{}
	hc         *http.Client
	stopWorker context.CancelFunc
	workerWG   sync.WaitGroup
	closeOnce  sync.Once
}

// listen serves the runner's handler on a loopback port.
func (s *system) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.addr = ln.Addr().String()
	s.srv = &http.Server{Handler: s.handler}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	return nil
}

// close stops workers, the listener and the runner, and waits for each.
// Later calls do nothing.
func (s *system) close() {
	s.closeOnce.Do(s.shutdown)
}

func (s *system) shutdown() {
	if s.stopWorker != nil {
		s.stopWorker()
		s.workerWG.Wait()
	}
	if s.srv != nil {
		_ = s.srv.Close() // only reports errors from closing the listener, which Serve owns
		<-s.served
		s.hc.CloseIdleConnections()
	}
	if s.local != nil {
		s.local.Close()
	}
}

// reportKey names one report: an experiment under one seed override.
type reportKey struct {
	Experiment, Seed string
}

func keysOf(req columndisturb.Request) []reportKey {
	keys := make([]reportKey, len(req.Experiments))
	for i, id := range req.Experiments {
		keys[i] = reportKey{id, req.Overrides["seed"]}
	}
	return keys
}

// verifier checks every operation's reports: no error, one non-empty
// report per requested ID, and bytes equal to the first report of the same
// (experiment, seed) in the run.
type verifier struct {
	corruptOp int

	mu      sync.Mutex
	first   map[reportKey]string
	firstOp map[reportKey]int
	failed  map[int]string
}

func newVerifier(corruptOp int) *verifier {
	return &verifier{
		corruptOp: corruptOp,
		first:     map[reportKey]string{},
		firstOp:   map[reportKey]int{},
		failed:    map[int]string{},
	}
}

// check verifies operation i (i < 0 marks untimed priming) and records a
// failure against it.
func (v *verifier) check(i int, req columndisturb.Request, res *columndisturb.Result, err error) bool {
	var problem string
	switch {
	case err != nil:
		problem = err.Error()
	case res == nil || len(res.Reports) != len(req.Experiments):
		problem = "wrong number of reports"
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if problem == "" {
		for j, key := range keysOf(req) {
			rep := res.Reports[j]
			if rep == nil || rep.ID != key.Experiment || rep.Text == "" {
				problem = fmt.Sprintf("%s: missing or empty report", key.Experiment)
				break
			}
			text := rep.Text
			if v.corruptOp >= 0 && i == v.corruptOp {
				text += "\ncorrupted"
			}
			prev, seen := v.first[key]
			if !seen {
				v.first[key], v.firstOp[key] = text, i
				continue
			}
			if prev != text {
				problem = fmt.Sprintf("%s seed %s: report differs from operation %d", key.Experiment, key.Seed, v.firstOp[key])
				break
			}
		}
	}
	if problem != "" {
		v.failed[i] = problem
		return false
	}
	return true
}

// fail records a failure found after the operation returned.
func (v *verifier) fail(i int, problem string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, dup := v.failed[i]; !dup {
		v.failed[i] = problem
	}
}

// failure is operation i's recorded problem ("" when it passed).
func (v *verifier) failure(i int) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.failed[i]
}

func (v *verifier) text(k reportKey) (string, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	t, ok := v.first[k]
	return t, ok
}

// digest is the SHA-256 over the named reports, in order.
func (v *verifier) digest(keys []reportKey) (string, error) {
	h := sha256.New()
	for _, k := range keys {
		t, ok := v.text(k)
		if !ok {
			return "", fmt.Errorf("digest: no report for %s seed %s", k.Experiment, k.Seed)
		}
		fmt.Fprintf(h, "%s\x00%s\x00%d\x00%s", k.Experiment, k.Seed, len(t), t)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sample is one completed operation.
type sample struct {
	op      int
	latency time.Duration
	ok      bool
	traced  bool
}

// closedLoop runs clients callers that each send their next operation
// only after the previous one returned. Operation indices are handed out
// in order, so the operations that ran are always 0..n-1. stop reports
// whether operation i should not start.
func closedLoop(ctx context.Context, clients int, stop func(i int) bool, do func(ctx context.Context, c, i int) (ok, traced bool)) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if stop(i) {
					return
				}
				start := time.Now()
				ok, traced := do(ctx, c, i)
				s := sample{op: i, latency: time.Since(start), ok: ok, traced: traced}
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].op < out[b].op })
	return out
}

// timeSetups builds the system setupReps times, closing all but the last,
// and returns it with the median build time.
func timeSetups(ctx context.Context, w *workload, e *env) (*system, float64, error) {
	var secs []float64
	var sys *system
	for r := 0; r < setupReps; r++ {
		if sys != nil {
			sys.close()
		}
		start := time.Now()
		var err error
		sys, err = w.build(ctx, e)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return sys, median(secs), nil
}

// runWorkload executes one run and assembles its summary.
func runWorkload(ctx context.Context, w *workload, opts options, stdout, stderr io.Writer) (*summary, error) {
	e := &env{
		opts:  opts,
		nproc: runtime.NumCPU(),
		dir:   filepath.Join(opts.out, "state", opts.workload),
		v:     newVerifier(opts.corruptOp),
	}
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)

	host := fingerprint(opts, e.nproc)
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Fprintln(stdout, string(hostLine))

	if w.prime != nil {
		if err := w.prime(ctx, e); err != nil {
			return nil, fmt.Errorf("prime: %w", err)
		}
	}
	sys, setupS, err := timeSetups(ctx, w, e)
	if err != nil {
		return nil, err
	}
	defer sys.close()

	clients := w.clients(e.nproc)
	var tr *tracer
	if opts.trace {
		tr = newTracer(time.Now())
	}
	cols := make([]*collector, clients)
	for c := range cols {
		cols[c] = &collector{}
		if tr != nil {
			defer sys.subscribe(c, cols[c].observe)()
		}
	}
	before, err := scrape(sys.handler)
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(opts.seconds * float64(time.Second)))
	stop := func(int) bool { return !time.Now().Before(deadline) }
	if tr != nil {
		n := tracedOpCount(w.tracedOpsPerSecond, opts.seconds)
		stop = func(i int) bool { return i >= n }
	}
	samples := closedLoop(ctx, clients, stop, func(ctx context.Context, c, i int) (bool, bool) {
		req := w.request(opts.seed, i)
		// Odd operations of a traced run are traced; the even ones are the
		// untraced baseline that trace.overhead_frac compares against.
		traced := tr != nil && i%2 == 1
		if traced {
			cols[c].begin()
		}
		opStart := time.Now()
		res, err := sys.runners[c].Run(ctx, req)
		ok := e.v.check(i, req, res, err)
		if traced {
			tr.addOp(i, req, opStart, time.Now(), cols[c].end(), sys.workers)
		}
		return ok, traced
	})
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	rss := peakRSSMB()
	after, err := scrape(sys.handler)
	if err != nil {
		return nil, err
	}
	sys.close()
	if len(samples) == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	if w.check != nil {
		if err := w.check(ctx, e, len(samples)); err != nil {
			return nil, err
		}
	}

	// A failure recorded after the fact (reference check) fails its sample.
	e.v.mu.Lock()
	failed := 0
	for i := range samples {
		if _, bad := e.v.failed[samples[i].op]; bad {
			samples[i].ok = false
		}
		if !samples[i].ok {
			failed++
			fmt.Fprintf(stderr, "perfbench: operation %d failed: %s\n", samples[i].op, e.v.failed[samples[i].op])
		}
	}
	e.v.mu.Unlock()

	digest, err := e.v.digest(w.digestKeys(opts.seed, len(samples)))
	correct := failed == 0 && err == nil
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
	}
	info, _ := json.Marshal(map[string]any{
		"workload": opts.workload, "seed": opts.seed, "report_sha256": digest,
		"operations": len(samples), "failed_frac": float64(failed) / float64(len(samples)),
	})
	fmt.Fprintln(stdout, string(info))

	sum := &summary{Correct: correct, Attempted: len(samples), Failed: failed}
	if !opts.trace {
		lat := latenciesMs(samples)
		fmt.Fprintf(stderr, "perfbench: %s: %d operations, p50 %.2f ms, p90 %.2f ms\n",
			opts.workload, len(lat), quantile(lat, 0.5), quantile(lat, 0.9))
		sum.Metrics = endToEnd(setupS, lat, wall, cpu, rss)
		return sum, nil
	}
	probes, err := runProbes(ctx, e)
	if err != nil {
		return nil, err
	}
	sum.Metrics = tr.layerMetrics(samples, before, after, probes)
	hot := strconv.FormatUint(opts.seed, 10)
	sum.Metrics["trace.overhead_frac"] = metric{overheadFrac(samples, func(op int) string {
		req := w.request(opts.seed, op)
		if req.Overrides["seed"] == hot {
			return strings.Join(req.Experiments, ",")
		}
		return strings.Join(req.Experiments, ",") + " fresh"
	}), "ratio"}
	if err := tr.write(filepath.Join(opts.out, "traces"), opts, host); err != nil {
		return nil, err
	}
	return sum, nil
}

func tracedOpCount(rate, seconds float64) int {
	n := int(rate*seconds + 0.999)
	if n < 2 {
		n = 2
	}
	return n
}

// endToEnd derives the untraced run's metrics.
func endToEnd(setupS float64, latMs []float64, wall, cpu time.Duration, rssMB float64) map[string]metric {
	n := float64(len(latMs))
	return map[string]metric{
		"setup_s":            {setupS, "s"},
		"request_p50_ms":     {quantile(latMs, 0.5), "ms"},
		"request_p90_ms":     {quantile(latMs, 0.9), "ms"},
		"requests_per_s":     {n / wall.Seconds(), "1/s"},
		"cpu_ms_per_request": {float64(cpu) / float64(time.Millisecond) / n, "ms"},
		"peak_rss_mb":        {rssMB, "MiB"},
	}
}
