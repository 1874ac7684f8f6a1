package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// spec reads the metric names and units BENCHMARK.json declares.
func spec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// lastLine returns stdout's last line decoded into v.
func lastLine(t *testing.T, stdout *bytes.Buffer, back int, v any) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) <= back {
		t.Fatalf("short output:\n%s", stdout.String())
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1-back]), v); err != nil {
		t.Fatalf("%v in %q", err, lines[len(lines)-1-back])
	}
}

func runArgs(t *testing.T, args ...string) summary {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-out", t.TempDir(), "-root", "..")
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	var sum summary
	lastLine(t, &stdout, 0, &sum)
	return sum
}

// TestWorkloadsEmitEveryMetric runs each workload at minimal length, once
// untraced and once traced, and checks the summary carries exactly the
// metrics BENCHMARK.json names, each with its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer := spec(t)
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				sum := runArgs(t, "-workload", w, "-seed", "3", "-seconds", "0.2", "-trace", trace)
				if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", sum.Correct, sum.Attempted, sum.Failed)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				for name, unit := range want {
					m, ok := sum.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
						continue
					}
					if m.Unit != unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v", name, m.Value)
					}
				}
				for name := range sum.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
				if trace == "0" {
					for name, m := range sum.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestTracedCountsRepeat checks that the counters a traced run derives
// from its fixed operation set repeat exactly for the same seed.
func TestTracedCountsRepeat(t *testing.T) {
	for w, names := range map[string][]string{
		"serve-mixed": {"cache.hit_ratio", "wal.records_per_request", "dispatch.worker_tasks"},
		"fleet-cold":  {"dispatch.requeues", "dispatch.worker_tasks", "cache.hit_ratio"},
	} {
		a := runArgs(t, "-workload", w, "-seed", "5", "-seconds", "0.5", "-trace", "1")
		b := runArgs(t, "-workload", w, "-seed", "5", "-seconds", "0.5", "-trace", "1")
		for _, n := range names {
			if a.Metrics[n] != b.Metrics[n] {
				t.Errorf("%s %s: %v then %v", w, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
	}
}

// TestInjectedMismatchFails corrupts one report and checks the run counts
// it as a failed operation and exits non-zero.
func TestInjectedMismatchFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	opts := options{workload: "fleet-cold", seed: 3, seconds: 0.2, out: t.TempDir(), root: "..", corruptOp: 0}
	if code := execute(context.Background(), opts, &stdout, &stderr); code == 0 {
		t.Fatalf("exit 0 with a corrupted report\n%s", stdout.String())
	}
	var sum summary
	lastLine(t, &stdout, 0, &sum)
	if sum.Correct || sum.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want false and 1", sum.Correct, sum.Failed)
	}
	var info struct {
		FailedFrac float64 `json:"failed_frac"`
	}
	lastLine(t, &stdout, 1, &info)
	if want := 1 / float64(sum.Attempted); info.FailedFrac != want {
		t.Fatalf("failed_frac %v, want %v", info.FailedFrac, want)
	}
	if !strings.Contains(stderr.String(), "serial in-process reference") {
		t.Fatalf("stderr does not name the reference mismatch:\n%s", stderr.String())
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 3},
		{ID: 3, Parent: 1, Start: 2, End: 5},  // overlaps span 2: [1,5) counts once
		{ID: 4, Parent: 1, Start: 8, End: 12}, // clipped to the parent's end
		{ID: 5, Parent: 3, Start: 3, End: 4},  // a grandchild covers its own parent only
		{ID: 6, Start: 20, End: 21},
	}
	want := map[int]float64{1: 10 - 4 - 2, 2: 2, 3: 3 - 1, 4: 4, 5: 1, 6: 1}
	got := selfTimes(spans)
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-9 {
			t.Errorf("span %d self time %v, want %v", id, got[id], w)
		}
	}
}

// TestInputsFollowTheSeed checks the generated traffic: the same seed
// gives the same requests, one serve-mixed operation in five is a miss
// with a seed of its own, and every cheap experiment is drawn equally
// often over whole blocks.
func TestInputsFollowTheSeed(t *testing.T) {
	const ops = serveMissEvery * 21 * 4
	seen := map[string]bool{}
	counts := map[string]int{}
	misses := 0
	for i := 0; i < ops; i++ {
		req := serveRequest(9, i)
		again := serveRequest(9, i)
		if req.Experiments[0] != again.Experiments[0] || req.Overrides["seed"] != again.Overrides["seed"] {
			t.Fatalf("operation %d differs between calls", i)
		}
		seed := req.Overrides["seed"]
		if seed != "9" {
			misses++
			if seen[seed] {
				t.Fatalf("operation %d reuses miss seed %s", i, seed)
			}
			seen[seed] = true
		}
		counts[req.Experiments[0]]++
	}
	if misses != ops/serveMissEvery {
		t.Fatalf("%d misses in %d operations", misses, ops)
	}
	for _, id := range cheapExperiments {
		if counts[id] != ops/len(cheapExperiments) {
			t.Fatalf("%s drawn %d times, want %d", id, counts[id], ops/len(cheapExperiments))
		}
	}
	if fleetRequest(9, 0).Experiments[0] == fleetRequest(10, 0).Experiments[0] &&
		fleetRequest(9, 1).Experiments[0] == fleetRequest(10, 1).Experiments[0] &&
		fleetRequest(9, 2).Experiments[0] == fleetRequest(10, 2).Experiments[0] {
		t.Fatal("fleet-cold ignores the seed")
	}
}

// TestWorkloadsDocumented keeps workloads.json in step with the code and
// BENCHMARK.json.
func TestWorkloadsDocumented(t *testing.T) {
	endToEnd, perLayer := spec(t)
	data, err := os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DefaultSeed uint64 `json:"default_seed"`
		HeldOutSeed uint64 `json:"held_out_seed"`
		Workloads   map[string]struct {
			Why string `json:"why"`
		} `json:"workloads"`
		Mapping []struct {
			Layer    []string `json:"layer_metrics"`
			Moves    []string `json:"moves"`
			Workload []string `json:"workloads"`
		} `json:"layer_to_end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DefaultSeed != defaultSeed || doc.HeldOutSeed == defaultSeed {
		t.Errorf("seeds %d/%d, code default %d", doc.DefaultSeed, doc.HeldOutSeed, defaultSeed)
	}
	for _, w := range workloadNames() {
		if doc.Workloads[w].Why == "" {
			t.Errorf("workload %s undocumented", w)
		}
	}
	mapped := map[string]bool{}
	for _, m := range doc.Mapping {
		for _, n := range m.Layer {
			if _, ok := perLayer[n]; !ok && !strings.HasSuffix(n, ".<id>") {
				t.Errorf("mapping names unknown layer metric %s", n)
			}
			mapped[strings.TrimSuffix(n, "<id>")] = true
		}
		for _, n := range m.Moves {
			if _, ok := endToEnd[n]; !ok && n != "none" {
				t.Errorf("mapping names unknown end-to-end metric %s", n)
			}
		}
		for _, w := range m.Workload {
			if _, ok := workloads[w]; !ok {
				t.Errorf("mapping names unknown workload %s", w)
			}
		}
	}
	for n := range perLayer {
		if !mapped[n] && !mapped[n[:strings.LastIndexByte(n, '.')+1]] {
			t.Errorf("layer metric %s has no mapping", n)
		}
	}
}
