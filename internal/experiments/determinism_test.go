package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestEveryExperimentHasPlan pins the single-contract invariant: the
// registry holds no Run-only experiments — every artifact decomposes into
// shards (most into several; see TestShardLabelsCanonical for the label
// contract).
func TestEveryExperimentHasPlan(t *testing.T) {
	all := All()
	if len(all) < 20 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	for _, e := range all {
		if e.Plan == nil {
			t.Errorf("%s: registered without a Plan", e.ID)
		}
	}
}

// TestSerialParallelBitIdentical is the engine's end-to-end determinism
// regression: for every registered experiment, the serial reference path
// (workers=1) and a 4-worker parallel run must render byte-identical
// output. The formerly-serial experiments (fig21–fig23, sec61, ttf, the
// ablations) are covered by the registry sweep like everything else. The
// serial render doubles as the golden-digest check (golden_test.go), which
// pins absolute output across revisions at no extra sweep.
func TestSerialParallelBitIdentical(t *testing.T) {
	cfg := Small()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			serial, err := e.RunWith(context.Background(), cfg, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := e.RunWith(context.Background(), cfg, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s, p := serial.String(), parallel.String(); s != p {
				t.Fatalf("serial and -j 4 output differ for %s:\n--- serial ---\n%s\n--- parallel ---\n%s", e.ID, s, p)
			}
			checkGolden(t, e.ID, serial.String())
		})
	}
}

// TestShardLabelsCanonical pins the shard-label contract for the whole
// registry: every label is "<id>/key=value[/key=value...]", unique within
// its plan, and free of surrounding whitespace. Labels are cache-key and
// dispatch-wire components, so a drifting or colliding label silently
// aliases cache entries and breaks shard_done event attribution.
func TestShardLabelsCanonical(t *testing.T) {
	cfg := Small()
	for _, e := range All() {
		plan, err := e.Plan(cfg)
		if err != nil {
			t.Fatalf("%s: plan: %v", e.ID, err)
		}
		if len(plan.Shards) == 0 {
			t.Fatalf("%s: empty shard list", e.ID)
		}
		if plan.Merge == nil {
			t.Fatalf("%s: nil merge", e.ID)
		}
		seen := map[string]bool{}
		for i, s := range plan.Shards {
			if s.Run == nil {
				t.Fatalf("%s: shard %d has no runner", e.ID, i)
			}
			label := s.Label
			if label == "" {
				t.Fatalf("%s: shard %d has no label", e.ID, i)
			}
			if seen[label] {
				t.Fatalf("%s: duplicate shard label %q", e.ID, label)
			}
			seen[label] = true
			if label != strings.TrimSpace(label) {
				t.Errorf("%s: shard label %q has surrounding whitespace", e.ID, label)
			}
			if !strings.HasPrefix(label, e.ID+"/") {
				t.Errorf("%s: shard label %q does not start with %q", e.ID, label, e.ID+"/")
				continue
			}
			for _, coord := range strings.Split(strings.TrimPrefix(label, e.ID+"/"), "/") {
				key, _, ok := strings.Cut(coord, "=")
				if !ok || key == "" {
					t.Errorf("%s: shard label %q coordinate %q is not key=value", e.ID, label, coord)
				}
			}
		}
	}
}

// TestShardPlansStable verifies a plan is a pure function of (ID, Config):
// two Plan calls enumerate identical shard lists (count and labels). The
// distributed dispatch contract rests on this — the server and a remote
// worker each call Plan and must address the same closure by index.
func TestShardPlansStable(t *testing.T) {
	cfg := Small()
	for _, e := range All() {
		a, err := e.Plan(cfg)
		if err != nil {
			t.Fatalf("%s: plan: %v", e.ID, err)
		}
		b, err := e.Plan(cfg)
		if err != nil {
			t.Fatalf("%s: second plan: %v", e.ID, err)
		}
		if len(a.Shards) != len(b.Shards) {
			t.Fatalf("%s: plan size changed between calls: %d vs %d", e.ID, len(a.Shards), len(b.Shards))
		}
		for i := range a.Shards {
			if a.Shards[i].Label != b.Shards[i].Label {
				t.Fatalf("%s: shard %d label changed between calls: %q vs %q",
					e.ID, i, a.Shards[i].Label, b.Shards[i].Label)
			}
		}
	}
}

// TestFormerlySerialExperimentsMultiShard pins the tentpole of the
// Plan-everywhere refactor: the experiments that used to run through the
// legacy serial Run path as one opaque pseudo-shard now decompose into
// real multi-shard plans, so the engine, cache and dispatcher see them as
// independently schedulable units.
func TestFormerlySerialExperimentsMultiShard(t *testing.T) {
	cfg := Small()
	want := map[string]int{ // minimum shard counts
		"fig21":            5, // 2 modules × 2 intervals + ECC
		"fig22":            4, // strong-RT points
		"fig23":            4, // Small().Mixes + markers
		"sec61":            3, // mechanisms
		"ttf":              6, // 3 mfrs × 2 temperatures
		"ablation-f":       2, // coupling-law variants
		"ablation-bitline": 3, // column classes
	}
	for id, min := range want {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		plan, err := e.Plan(cfg)
		if err != nil {
			t.Fatalf("%s: plan: %v", id, err)
		}
		if len(plan.Shards) < min {
			t.Errorf("%s: %d shards, want at least %d", id, len(plan.Shards), min)
		}
	}
}

// TestProgressThroughRunWith verifies shard progress surfaces through the
// experiment layer with the right totals.
func TestProgressThroughRunWith(t *testing.T) {
	cfg := Small()
	e, _ := ByID("table1")
	plan, err := e.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	var lastDone, lastTotal int
	if _, err := e.RunWith(context.Background(), cfg, 2, func(done, total int, label string) {
		calls++
		lastDone, lastTotal = done, total
	}); err != nil {
		t.Fatal(err)
	}
	if calls != len(plan.Shards) || lastDone != lastTotal || lastTotal != len(plan.Shards) {
		t.Fatalf("progress calls=%d lastDone=%d lastTotal=%d, want %d shards",
			calls, lastDone, lastTotal, len(plan.Shards))
	}
}
