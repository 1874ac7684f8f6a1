// Package engine executes independent experiment shards on a bounded
// worker pool.
//
// The engine is the repo's scale-out scaffolding: an experiment that can
// decompose its sweep into independent units of work (shards) hands the
// engine a slice of closures and gets back their results in input order,
// regardless of how many workers ran them or in what order they finished.
// Determinism is a contract between the engine and its callers:
//
//   - The engine guarantees ordered collection: result i always comes from
//     shard i, and a serial run (Workers=1) executes shards in input order.
//   - The caller guarantees shard independence: each shard derives any
//     randomness it needs from its own key (see rng.Key) rather than from
//     state shared with other shards, and mutates no shared data.
//
// Under those two rules a parallel run is bit-identical to a serial one,
// which the experiments package exploits to make `cdlab run -j N` produce
// byte-for-byte the output of `-j 1`.
//
// Two execution surfaces share that contract:
//
//   - Run spins up a transient pool for one shard list — the one-shot CLI
//     path.
//   - Pool is a long-lived shared pool: any number of concurrent Run calls
//     (one per in-flight experiment) feed their shards into the same fixed
//     set of workers, so a service scheduling many experiments at once
//     stays bounded at one pool's worth of parallelism instead of pooling
//     per experiment (see internal/service).
//
// Shards carry no cost or priority hint: every backend starts a Run's
// shards in input order (the dispatch backend lets interrupted work go
// first; see internal/dispatch).
//
// Cancellation is cooperative and scheduling-level: when a Run call's
// context is cancelled the engine stops handing out new shards, marks the
// not-yet-started ones with the context error, lets in-flight shards finish
// (their Run receives the context and may return early), and reports the
// cancellation via errors.Is(err, ctx.Err()). A cancelled Run on a shared
// Pool leaves the pool fully usable for other callers.
//
// Panics inside a shard are isolated: they are captured with their stack
// and reported as that shard's error instead of tearing down the process,
// so one poisoned unit of a 1000-shard sweep fails loudly without losing
// the worker pool.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"columndisturb/internal/obs"
)

// Shard is one independent unit of work. Run must be safe to call from any
// goroutine and must not share mutable state with other shards. The context
// is the one passed to the engine's Run: long-running shards may poll it to
// bail out early after cancellation, but are not required to.
type Shard struct {
	// Label identifies the shard in progress reports and error messages.
	Label string
	// Run produces the shard's partial result.
	Run func(ctx context.Context) (any, error)
	// Remote, when non-nil, describes how a remote-capable Backend may
	// execute this shard on a worker process instead of invoking Run
	// in-process (see internal/dispatch). Backends without remote capacity
	// — including Pool — ignore it, so attaching a RemoteSpec never changes
	// local execution.
	Remote *RemoteSpec
	// Span, when non-nil, is the shard's observability span (internal/obs).
	// Backends that move the shard through scheduling states (lease,
	// requeue) record those transitions on it; the shard's own Run closure
	// records execution and completion. Spans are a pure side channel —
	// nil-safe, never consulted for scheduling, and never part of results.
	Span *obs.Span
}

// RemoteSpec is the off-process execution contract of one shard. The
// backend sends Spec's bytes to a worker, and the worker's reply must
// yield — through Accept — exactly the value Run would have produced, so
// placement (local worker goroutine vs remote process) never changes a
// run's output.
type RemoteSpec struct {
	// Spec is the opaque task descriptor shipped to the worker (the
	// dispatch wire format's TaskSpec, serialized).
	Spec []byte
	// Probe, when non-nil, is a server-side fast path the backend must
	// consult before dispatching the shard remotely (the service's shard
	// cache); a true return yields the shard's value with no remote work.
	Probe func() (value any, ok bool)
	// Accept ingests a worker's successful reply: it decodes the bytes and
	// performs whatever bookkeeping Run would have done around the
	// computation (cache fill, progress events), returning the shard's
	// value. from names the worker that executed the shard; elapsed is the
	// lease→complete wall time the backend observed (it includes queueing
	// on the worker and transport).
	Accept func(from string, elapsed time.Duration, reply []byte) (any, error)
}

// Backend is the shard-execution contract shared by the local Pool and
// alternative schedulers (internal/dispatch routes shards to remote worker
// processes). Run must honor the package contract: results in input order,
// per-shard failures joined via *ShardError (see JoinShardErrors), and
// cancellation reported as errors.Is(err, ctx.Err()) while leaving the
// backend usable for concurrent callers.
type Backend interface {
	Run(ctx context.Context, shards []Shard, opts Options) ([]any, error)
	// Workers reports the backend's local parallelism bound.
	Workers() int
	// Busy reports how many shards are executing right now — an
	// instantaneous utilization reading for metrics exporters.
	Busy() int
	// Close releases the backend's resources; it must not be called
	// concurrently with Run.
	Close()
}

// Options tunes a Run call.
type Options struct {
	// Workers bounds the number of concurrently executing shards.
	// Values <= 0 select runtime.GOMAXPROCS(0). Ignored by Pool.Run,
	// where the pool's own size is the bound.
	Workers int
	// OnProgress, when non-nil, is called after each shard completes with
	// the number of completed shards, the total, and the finished shard's
	// label. Calls are serialized (never concurrent) but may arrive in any
	// shard order. Shards skipped because of cancellation are not reported.
	OnProgress func(done, total int, label string)
	// Recovered marks this run as crash-recovered work resubmitted after a
	// restart. It is a scheduling hint only: queue-aware backends treat
	// the shards like requeued interrupted leases (front of the queue)
	// instead of new arrivals, so work that already waited through a crash
	// is not penalized a second time. Plain pools ignore it.
	Recovered bool
}

// ShardError reports the failure of one shard, preserving its identity.
type ShardError struct {
	Index int
	Label string
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d (%s): %v", e.Index, e.Label, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// Run executes every shard and returns their results in input order:
// out[i] is the value produced by shards[i]. All shards are attempted even
// if some fail; the returned error joins every per-shard failure (wrapped
// in *ShardError) and is nil only when all shards succeeded. If ctx is
// cancelled mid-run, no new shards start and the returned error satisfies
// errors.Is(err, ctx.Err()).
func Run(ctx context.Context, shards []Shard, opts Options) ([]any, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	if len(shards) == 0 {
		return nil, ctx.Err()
	}
	if workers == 1 {
		// Serial reference path: input order, no goroutines.
		out := make([]any, len(shards))
		errs := make([]error, len(shards))
		report := ProgressReporter(opts, len(shards))
		for i := range shards {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			out[i], errs[i] = RunShard(ctx, shards[i])
			report(shards[i].Label)
		}
		return out, JoinShardErrors(ctx, shards, errs)
	}
	p := NewPool(workers)
	defer p.Close()
	return p.Run(ctx, shards, opts)
}

// Pool is a fixed set of workers shared by any number of concurrent Run
// calls. It is the scheduling substrate of the experiment service: every
// submitted experiment's shards funnel into the same workers, so total
// parallelism stays bounded no matter how many experiments are in flight.
// A Pool must be released with Close; all methods are goroutine-safe.
type Pool struct {
	workers int
	tasks   chan func()
	wg      sync.WaitGroup
	once    sync.Once
	busy    atomic.Int64
}

var _ Backend = (*Pool)(nil)

// NewPool starts a pool with the given number of workers (<= 0 selects
// runtime.GOMAXPROCS(0)).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, tasks: make(chan func())}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				p.busy.Add(1)
				task()
				p.busy.Add(-1)
			}
		}()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Busy reports how many workers are currently executing a task — an
// instantaneous utilization reading for metrics exporters.
func (p *Pool) Busy() int { return int(p.busy.Load()) }

// Close stops accepting work and waits for the workers to drain. It is
// safe to call more than once, but not concurrently with Run.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.tasks) })
	p.wg.Wait()
}

// Run executes the shards on the shared pool with the same ordered-
// collection, error-joining and cancellation semantics as the package-level
// Run. Concurrent Run calls interleave their shards on the same workers;
// each call observes only its own context, so cancelling one caller never
// disturbs the others. Run must not be called from inside a shard (the
// nested submission could deadlock waiting for its own worker).
func (p *Pool) Run(ctx context.Context, shards []Shard, opts Options) ([]any, error) {
	out := make([]any, len(shards))
	errs := make([]error, len(shards))
	report := ProgressReporter(opts, len(shards))

	var wg sync.WaitGroup
submit:
	for i := range shards {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		i := i
		wg.Add(1)
		task := func() {
			defer wg.Done()
			// The shard may have sat in the queue across a cancellation;
			// don't start it late.
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			out[i], errs[i] = RunShard(ctx, shards[i])
			report(shards[i].Label)
		}
		select {
		case p.tasks <- task:
		case <-ctx.Done():
			wg.Done() // the task was never handed to a worker
			errs[i] = ctx.Err()
			continue submit
		}
	}
	wg.Wait()
	return out, JoinShardErrors(ctx, shards, errs)
}

// ProgressReporter serializes OnProgress callbacks: the counter increment
// and the callback share one critical section so OnProgress observes a
// strictly monotonic done sequence. Exported so alternative Backend
// implementations (internal/dispatch) report progress with exactly the
// Pool's semantics. The returned closure is always non-nil and safe to
// call whether or not OnProgress is set.
func ProgressReporter(opts Options, total int) func(label string) {
	done := 0
	var mu sync.Mutex
	return func(label string) {
		mu.Lock()
		done++
		if opts.OnProgress != nil {
			opts.OnProgress(done, total, label)
		}
		mu.Unlock()
	}
}

// JoinShardErrors folds per-shard failures into one error. Shards that
// never ran because the context was cancelled are represented by a single
// ctx.Err() (rather than one ShardError per skipped shard), so a cancelled
// 1000-shard sweep reports "context canceled" once, alongside any genuine
// shard failures. Exported so alternative Backend implementations report
// failures with exactly the Pool's semantics.
func JoinShardErrors(ctx context.Context, shards []Shard, errs []error) error {
	var joined []error
	cancelled := false
	for i, err := range errs {
		if err == nil {
			continue
		}
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			cancelled = true
			continue
		}
		joined = append(joined, &ShardError{Index: i, Label: shards[i].Label, Err: err})
	}
	if cancelled {
		joined = append([]error{ctx.Err()}, joined...)
	}
	return errors.Join(joined...)
}

// RunShard runs one shard with panic isolation: a panicking shard yields
// an error carrying the panic value and stack instead of crashing the pool.
// It is the single-shard execution primitive shared by the Pool's workers,
// the dispatch backend's local executors, and the remote worker process —
// a poisoned shard fails loudly wherever it runs, never tearing down the
// process that hosts it.
func RunShard(ctx context.Context, s Shard) (result any, err error) {
	defer func() {
		if p := recover(); p != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = fmt.Errorf("panic: %v\n%s", p, buf)
		}
	}()
	return s.Run(ctx)
}
