package columndisturb

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestLocalRunnerMultiExperiment: one request fans several experiments
// onto the shared pool and returns reports in request order, identical to
// single-experiment requests run serially on a separate runner.
func TestLocalRunnerMultiExperiment(t *testing.T) {
	r, err := NewLocalRunner(LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	single, err := NewLocalRunner(LocalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	ids := []string{"table1", "sec61"}
	res, err := r.Run(context.Background(), Request{Experiments: ids})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 2 || res.Err() != nil {
		t.Fatalf("result shape: %d reports, err %v", len(res.Reports), res.Err())
	}
	for i, id := range ids {
		rep := res.Reports[i]
		if rep == nil || rep.ID != id {
			t.Fatalf("report %d = %+v, want id %s", i, rep, id)
		}
		one, err := single.Run(context.Background(), Request{Experiments: []string{id}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Text != one.Reports[0].Text {
			t.Fatalf("%s: batch report differs from a single-experiment run", id)
		}
		if res.Report(id) != rep {
			t.Fatalf("Report(%q) lookup failed", id)
		}
	}
}

// TestRunnerValidatesUpFront: unknown IDs anywhere in the request fail the
// whole request before any job starts, naming every offender.
func TestRunnerValidatesUpFront(t *testing.T) {
	r, err := NewLocalRunner(LocalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var events int
	stop := r.Subscribe(func(Event) { events++ })
	defer stop()

	_, err = r.Run(context.Background(), Request{Experiments: []string{"table1", "nope", "alsonope"}})
	var unknown *UnknownExperimentError
	if !errors.As(err, &unknown) {
		t.Fatalf("error = %v, want *UnknownExperimentError", err)
	}
	if len(unknown.IDs) != 2 || unknown.IDs[0] != "alsonope" || unknown.IDs[1] != "nope" {
		t.Fatalf("unknown IDs = %v", unknown.IDs)
	}
	if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("error does not name the offenders: %v", err)
	}
	if events != 0 {
		t.Fatalf("%d events emitted for a rejected request (work started?)", events)
	}

	// Bad profile and bad overrides are rejected up front too.
	if _, err := r.Run(context.Background(), Request{Experiments: []string{"table1"}, Profile: "nope"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := r.Run(context.Background(), Request{Experiments: []string{"table1"}, Overrides: map[string]string{"x": "1"}}); err == nil {
		t.Fatal("unknown override accepted")
	}
	if events != 0 {
		t.Fatalf("%d events emitted for rejected requests", events)
	}
}

// TestRunnerSubscribe: subscribers observe a complete, ordered event
// stream for each job of a run.
func TestRunnerSubscribe(t *testing.T) {
	r, err := NewLocalRunner(LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var mu sync.Mutex
	perJob := map[string][]Event{}
	stop := r.Subscribe(func(ev Event) {
		mu.Lock()
		perJob[ev.Job] = append(perJob[ev.Job], ev)
		mu.Unlock()
	})
	defer stop()

	if _, err := r.Run(context.Background(), Request{Experiments: []string{"table1"}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(perJob) != 1 {
		t.Fatalf("events for %d jobs, want 1", len(perJob))
	}
	for job, evs := range perJob {
		for i, ev := range evs {
			if ev.Seq != i {
				t.Fatalf("job %s: event %d has seq %d", job, i, ev.Seq)
			}
		}
		first, last := evs[0], evs[len(evs)-1]
		if first.Type != EventJobQueued || last.Type != EventJobFinished {
			t.Fatalf("job %s: stream %s..%s", job, first.Type, last.Type)
		}
	}
}

// TestRunnerProfileAndOverrides: a registered profile and inline overrides
// that resolve to the same configuration produce byte-identical reports.
func TestRunnerProfileAndOverrides(t *testing.T) {
	ov := map[string]string{"subarrays-per-module": "2", "ttf-samples": "8", "seed": "11"}
	if err := RegisterProfile("api-test-tiny", "tiny sweep for tests", "small", ov); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range Profiles() {
		if p.Name == "api-test-tiny" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered profile not listed")
	}

	r, err := NewLocalRunner(LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	viaProfile, err := r.Run(context.Background(), Request{Experiments: []string{"fig6"}, Profile: "api-test-tiny"})
	if err != nil {
		t.Fatal(err)
	}
	viaOverrides, err := r.Run(context.Background(), Request{Experiments: []string{"fig6"}, Overrides: ov})
	if err != nil {
		t.Fatal(err)
	}
	if viaProfile.Reports[0].Text != viaOverrides.Reports[0].Text {
		t.Fatal("profile-resolved and override-resolved runs differ")
	}
	// And both differ from the plain small run: the overrides took effect.
	small, err := r.Run(context.Background(), Request{Experiments: []string{"fig6"}})
	if err != nil {
		t.Fatal(err)
	}
	if small.Reports[0].Text == viaProfile.Reports[0].Text {
		t.Fatal("overridden run identical to base profile run")
	}
}

// TestRunnerPartialFailure: one failing experiment in a batch surfaces at
// its position while the rest complete.
func TestRunnerPartialFailure(t *testing.T) {
	r, err := NewLocalRunner(LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Run(context.Background(), Request{Experiments: []string{"nope"}}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Cancelled context: Run returns ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx, Request{Experiments: []string{"table1"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v", err)
	}
}
