package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"columndisturb/internal/cache"
	"columndisturb/internal/experiments"
)

// checkEventStream validates one job's complete JSONL event stream against
// the schema: a gap-free Seq sequence opening with job_queued, then
// job_started, shard_done with monotonically increasing Done, and exactly
// one terminal event at the end. Every event must survive a JSON round
// trip (the wire format of -json and the HTTP stream).
func checkEventStream(t *testing.T, events []Event, wantShards int) {
	t.Helper()
	if len(events) < 3 {
		t.Fatalf("stream too short: %d events", len(events))
	}
	shardDone := 0
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d (gap or reorder)", i, ev.Seq)
		}
		if err := ValidateEvent(ev); err != nil {
			t.Fatalf("event %d invalid: %v", i, err)
		}
		line := ev.EncodeJSONL()
		var back Event
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatalf("event %d does not round-trip JSON: %v (%s)", i, err, line)
		}
		if back.Type != ev.Type || back.Seq != ev.Seq || back.Job != ev.Job {
			t.Fatalf("event %d mutated by JSON round trip: %+v vs %+v", i, back, ev)
		}
		switch {
		case i == 0 && ev.Type != EventJobQueued:
			t.Fatalf("stream opens with %s, want job_queued", ev.Type)
		case i == 1 && ev.Type != EventJobStarted:
			t.Fatalf("second event %s, want job_started", ev.Type)
		case i == len(events)-1:
			if ev.Type != EventJobFinished && ev.Type != EventJobFailed {
				t.Fatalf("stream ends with %s, want a terminal event", ev.Type)
			}
		case i >= 2 && ev.Type == EventShardDone:
			shardDone++
			if ev.Done != shardDone {
				t.Fatalf("shard_done #%d has Done=%d", shardDone, ev.Done)
			}
		}
	}
	if wantShards >= 0 && shardDone != wantShards {
		t.Fatalf("stream has %d shard_done events, want %d", shardDone, wantShards)
	}
}

// TestConcurrentJobsOneSharedPool is the acceptance-criteria scenario: two
// experiments submitted concurrently execute through one shared pool, each
// producing a valid event stream and the same report as a direct run.
func TestConcurrentJobsOneSharedPool(t *testing.T) {
	svc := New(Options{Workers: 2})
	defer svc.Close()

	ids := []string{"fig6", "table1"}
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		j, err := svc.Submit(JobSpec{Experiment: id})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", ids[i], err)
		}
		e, _ := experiments.ByID(ids[i])
		direct, err := e.RunWith(context.Background(), experiments.Small(), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.String() != direct.String() {
			t.Fatalf("%s: service report differs from direct run", ids[i])
		}
		if j.State() != JobDone {
			t.Fatalf("%s: state %s", ids[i], j.State())
		}
		_, total := j.Progress()
		checkEventStream(t, j.EventHistory(), total)
	}
}

// TestEventsReplayAndFollow checks a late subscriber still receives the
// full stream from Seq 0 through the terminal event.
func TestEventsReplayAndFollow(t *testing.T) {
	svc := New(Options{Workers: 2})
	defer svc.Close()
	j, err := svc.Submit(JobSpec{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Subscribe after completion: pure replay.
	var got []Event
	for ev := range j.Events(context.Background()) {
		got = append(got, ev)
	}
	checkEventStream(t, got, -1)
	if len(got) != len(j.EventHistory()) {
		t.Fatalf("replay returned %d of %d events", len(got), len(j.EventHistory()))
	}
}

// TestWarmCacheRunIsByteIdenticalAndRecomputesNothing is the cache
// acceptance criterion: with a warm cache a repeated run recomputes zero
// shards and renders a byte-identical report — across service instances,
// via the on-disk store.
func TestWarmCacheRunIsByteIdenticalAndRecomputesNothing(t *testing.T) {
	dir := t.TempDir()
	run := func(id string) (string, *Job) {
		store, err := cache.New(cache.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Options{Workers: 4, Cache: store})
		defer svc.Close()
		j, err := svc.Submit(JobSpec{Experiment: id})
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.String(), j
	}

	for _, id := range []string{"fig6", "table1"} {
		id := id
		t.Run(id, func(t *testing.T) {
			cold, coldJob := run(id)
			hits, misses := coldJob.CacheCounts()
			if hits != 0 || misses == 0 {
				t.Fatalf("cold run: hits=%d misses=%d", hits, misses)
			}
			warm, warmJob := run(id)
			hits, misses = warmJob.CacheCounts()
			if misses != 0 {
				t.Fatalf("warm run recomputed %d shards", misses)
			}
			_, total := warmJob.Progress()
			if hits != total || total == 0 {
				t.Fatalf("warm run: hits=%d of %d shards", hits, total)
			}
			if cold != warm {
				t.Fatalf("warm report differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
			}
			// Every warm shard_done event advertises the cache hit.
			for _, ev := range warmJob.EventHistory() {
				if ev.Type == EventShardDone && (ev.Cached == nil || !*ev.Cached) {
					t.Fatalf("warm shard %q not marked cached", ev.Shard)
				}
			}
		})
	}
}

// TestConfigChangeMissesCache: the same experiment under a different
// config must not reuse cached shards (the config digest keys them).
func TestConfigChangeMissesCache(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Workers: 2, Cache: store})
	defer svc.Close()

	j1, err := svc.Submit(JobSpec{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	j2, err := svc.Submit(JobSpec{Experiment: "table1", Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if hits, _ := j2.CacheCounts(); hits != 0 {
		t.Fatalf("full-config run hit %d small-config cache entries", hits)
	}
}

// registerBlockingExperiment installs a synthetic sharded experiment whose
// shards block until released (or their context is cancelled), giving the
// cancellation tests a controllable mid-sweep state. Registration is
// global, so each test uses a unique ID.
func registerBlockingExperiment(id string, shards int, started chan<- string, release <-chan struct{}) {
	experiments.Register(experiments.Experiment{
		ID:    id,
		Paper: "test",
		Title: "synthetic blocking sweep",
		Plan: func(cfg experiments.Config) (*experiments.Plan, error) {
			plan := &experiments.Plan{}
			for i := 0; i < shards; i++ {
				label := fmt.Sprintf("%s shard %d", id, i)
				plan.Shards = append(plan.Shards, experiments.Shard{
					Label: label,
					Run: func(ctx context.Context) (any, error) {
						select {
						case started <- label:
						default:
						}
						select {
						case <-release:
							return "ok", nil
						case <-ctx.Done():
							return nil, ctx.Err()
						}
					},
				})
			}
			plan.Merge = func(parts []any) (*experiments.Result, error) {
				res := &experiments.Result{ID: id, Title: "blocking"}
				for range parts {
					res.AddRow("ok")
				}
				return res, nil
			}
			return plan, nil
		},
	})
}

// TestCancellationMidSweep is the cancellation satellite: cancelling a job
// mid-sweep stops scheduling new shards, fails the job with
// context.Canceled, and leaves the shared pool usable for queued jobs.
func TestCancellationMidSweep(t *testing.T) {
	started := make(chan string, 64)
	release := make(chan struct{})
	registerBlockingExperiment("svc-test-block", 40, started, release)

	svc := New(Options{Workers: 2})
	defer svc.Close()

	j, err := svc.Submit(JobSpec{Experiment: "svc-test-block"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until both workers hold a shard, then cancel mid-sweep.
	<-started
	<-started
	j.Cancel()
	close(release)

	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job error = %v, want context.Canceled", err)
	}
	if st := j.State(); st != JobCanceled {
		t.Fatalf("state = %s, want canceled", st)
	}
	done, _ := j.Progress()
	if done > 4 {
		t.Fatalf("%d shards completed after cancellation", done)
	}
	events := j.EventHistory()
	last := events[len(events)-1]
	if last.Type != EventJobFailed || last.Error == "" {
		t.Fatalf("terminal event = %+v, want job_failed with error", last)
	}

	// The shared pool must still serve other jobs.
	j2, err := svc.Submit(JobSpec{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatalf("pool unusable after cancellation: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("post-cancel job produced an empty report")
	}
	_, total := j2.Progress()
	checkEventStream(t, j2.EventHistory(), total)
}

// TestCancelOneJobLeavesSiblingRunning: two jobs share the pool; killing
// one must not disturb the other.
func TestCancelOneJobLeavesSiblingRunning(t *testing.T) {
	started := make(chan string, 64)
	release := make(chan struct{})
	registerBlockingExperiment("svc-test-block2", 6, started, release)

	svc := New(Options{Workers: 4})
	defer svc.Close()

	victim, err := svc.Submit(JobSpec{Experiment: "svc-test-block2"})
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := svc.Submit(JobSpec{Experiment: "fig6"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	victim.Cancel()
	close(release)

	if _, err := victim.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("victim error = %v", err)
	}
	res, err := sibling.Wait(context.Background())
	if err != nil {
		t.Fatalf("sibling failed after victim cancellation: %v", err)
	}
	e, _ := experiments.ByID("fig6")
	direct, err := e.RunWith(context.Background(), experiments.Small(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != direct.String() {
		t.Fatal("sibling report corrupted by victim cancellation")
	}
}

// TestMaxActiveJobsSerializes: with MaxActiveJobs=1 the second job stays
// queued until the first settles.
func TestMaxActiveJobsSerializes(t *testing.T) {
	started := make(chan string, 64)
	release := make(chan struct{})
	registerBlockingExperiment("svc-test-block3", 2, started, release)

	svc := New(Options{Workers: 4, MaxActiveJobs: 1})
	defer svc.Close()

	first, err := svc.Submit(JobSpec{Experiment: "svc-test-block3"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.Submit(JobSpec{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if st := second.State(); st != JobQueued {
		t.Fatalf("second job %s while first holds the scheduler slot", st)
	}
	close(release)
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestMergePanicFailsOnlyThatJob: a panicking merge (e.g. over a foreign
// cached part type) must fail its job, not kill the service.
func TestMergePanicFailsOnlyThatJob(t *testing.T) {
	experiments.Register(experiments.Experiment{
		ID:    "svc-test-merge-panic",
		Paper: "test",
		Title: "merge panics",
		Plan: func(cfg experiments.Config) (*experiments.Plan, error) {
			return &experiments.Plan{
				Shards: []experiments.Shard{{
					Label: "svc-test-merge-panic shard",
					Run:   func(context.Context) (any, error) { return 1, nil },
				}},
				Merge: func(parts []any) (*experiments.Result, error) {
					panic("poisoned merge")
				},
			}, nil
		},
	})

	svc := New(Options{Workers: 2})
	defer svc.Close()
	j, err := svc.Submit(JobSpec{Experiment: "svc-test-merge-panic"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "poisoned merge") {
		t.Fatalf("merge panic surfaced as %v, want an error naming the panic", err)
	}
	if st := j.State(); st != JobFailed {
		t.Fatalf("state = %s, want failed", st)
	}
	// The service survives and runs the next job.
	j2, err := svc.Submit(JobSpec{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatalf("service unusable after merge panic: %v", err)
	}
}

// TestSubmitValidation rejects unknown experiments and post-Close submits.
func TestSubmitValidation(t *testing.T) {
	svc := New(Options{Workers: 1})
	if _, err := svc.Submit(JobSpec{Experiment: "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	svc.Close()
	if _, err := svc.Submit(JobSpec{Experiment: "table1"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit error = %v, want ErrClosed", err)
	}
}

// TestOnEventObservesEverything: the global hook sees every event of every
// job (the -json front-end's data source).
func TestOnEventObservesEverything(t *testing.T) {
	var count atomic.Int64
	svc := New(Options{Workers: 2, OnEvent: func(Event) { count.Add(1) }})
	defer svc.Close()
	j, err := svc.Submit(JobSpec{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// emit serializes OnEvent with history appends, so by Wait's return all
	// events are delivered.
	if got, want := count.Load(), int64(len(j.EventHistory())); got != want {
		t.Fatalf("OnEvent saw %d of %d events", got, want)
	}
}

// TestJobElapsedMeasuredOnce: a settled job's Elapsed is stable (measured
// once at completion), so front-ends can print it before and after writing
// report files without disagreement.
func TestJobElapsedMeasuredOnce(t *testing.T) {
	svc := New(Options{Workers: 2})
	defer svc.Close()
	j, err := svc.Submit(JobSpec{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := j.Elapsed()
	time.Sleep(10 * time.Millisecond)
	if second := j.Elapsed(); second != first {
		t.Fatalf("Elapsed drifted after completion: %v then %v", first, second)
	}
	// The terminal event carries the same figure.
	events := j.EventHistory()
	last := events[len(events)-1]
	if last.ElapsedMs != float64(first)/float64(time.Millisecond) {
		t.Fatalf("job_finished elapsed %vms != Elapsed %v", last.ElapsedMs, first)
	}
}

// TestProfileFullEquivalence: the deprecated Full flag and Profile "full"
// resolve identically, so they share cache entries; an override produces a
// distinct digest and therefore a cold cache.
func TestProfileFullEquivalence(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Workers: 2, Cache: store})
	defer svc.Close()

	j1, err := svc.Submit(JobSpec{Experiment: "table1", Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	j2, err := svc.Submit(JobSpec{Experiment: "table1", Profile: "full"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, misses := j2.CacheCounts(); misses != 0 {
		t.Fatalf("profile=full recomputed %d shards after full=true warmed the cache", misses)
	}
	if j1.Config() != j2.Config() {
		t.Fatalf("full=true and profile=full resolved differently: %+v vs %+v", j1.Config(), j2.Config())
	}

	j3, err := svc.Submit(JobSpec{Experiment: "table1", Profile: "full", Overrides: map[string]string{"seed": "2"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j3.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if hits, _ := j3.CacheCounts(); hits != 0 {
		t.Fatalf("seed-overridden run hit %d base-config cache entries", hits)
	}
}

// TestNoCacheBypassesStore: a NoCache job neither reads nor writes the
// shard cache.
func TestNoCacheBypassesStore(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Workers: 2, Cache: store})
	defer svc.Close()

	warm, err := svc.Submit(JobSpec{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	puts := store.Stats().Puts

	j, err := svc.Submit(JobSpec{Experiment: "table1", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if hits, misses := j.CacheCounts(); hits != 0 || misses == 0 {
		t.Fatalf("NoCache job: hits=%d misses=%d", hits, misses)
	}
	if got := store.Stats().Puts; got != puts {
		t.Fatalf("NoCache job stored %d entries", got-puts)
	}
}
