package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // dropped: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// A gauge mirrors a value someone else owns; re-registering replaces
	// its callback.
	r := NewRegistry()
	r.GaugeFunc("g", "", func() float64 { return 7 })
	r.GaugeFunc("g", "", func() float64 { return 5 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\ng 5\n") {
		t.Fatalf("gauge export lacks the replacement value:\n%s", b.String())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 10, 11} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 25.5 {
		t.Fatalf("sum = %g, want 25.5", h.Sum())
	}
	// le semantics: bucket i counts v <= bounds[i].
	want := []int64{2, 1, 1, 1} // (<=1)=2{0.5,1}, (<=5)=1{3}, (<=10)=1{10}, +Inf=1{11}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering as a different type did not panic")
		}
	}()
	r.GaugeFunc("x_total", "help", func() float64 { return 0 })
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("cd_jobs_total", "jobs\nwith newline").Add(3)
	r.GaugeFunc("cd_active", "active", func() float64 { return 2 })
	r.Histogram("cd_ms", "latency", []float64{1, 10}).Observe(4)
	r.CounterVec("cd_tasks_total", "per worker", "worker").With(`w"1\x`).Inc()
	r.GaugeFunc("cd_depth", "queue depth", func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP cd_jobs_total jobs\\nwith newline\n",
		"# TYPE cd_jobs_total counter\n",
		"cd_jobs_total 3\n",
		"cd_active 2\n",
		"# TYPE cd_ms histogram\n",
		`cd_ms_bucket{le="1"} 0` + "\n",
		`cd_ms_bucket{le="10"} 1` + "\n",
		`cd_ms_bucket{le="+Inf"} 1` + "\n",
		"cd_ms_sum 4\n",
		"cd_ms_count 1\n",
		`cd_tasks_total{worker="w\"1\\x"} 1` + "\n",
		"cd_depth 1.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %q in:\n%s", want, out)
		}
	}
	// Families sorted by name for stable diffs.
	if strings.Index(out, "cd_active") > strings.Index(out, "cd_jobs_total") {
		t.Fatal("families not sorted by name")
	}
}

// TestRegistryRaceStress hammers one registry from many goroutines —
// increments, observations, vec-child creation, gauge callback
// replacement, and concurrent exports —
// and relies on -race (ci.sh runs the suite race-enabled) to flag any
// unsynchronized access.
func TestRegistryRaceStress(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("stress_total", "")
			h := r.Histogram("stress_ms", "", nil)
			v := r.CounterVec("stress_tasks_total", "", "worker")
			for i := 0; i < iters; i++ {
				c.Inc()
				n := float64(i)
				r.GaugeFunc("stress_gauge", "", func() float64 { return n })
				h.Observe(float64(i % 97))
				v.With(string(rune('a' + id))).Inc()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := r.Counter("stress_total", "").Value(); got != writers*iters {
		t.Fatalf("stress_total = %d, want %d", got, writers*iters)
	}
	if got := r.Histogram("stress_ms", "", nil).Count(); got != writers*iters {
		t.Fatalf("stress_ms count = %d, want %d", got, writers*iters)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"": "INFO", "debug": "DEBUG", "Warn": "WARN", "ERROR": "ERROR",
	} {
		lvl, err := ParseLevel(in)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", in, err)
		}
		if lvl.String() != want {
			t.Fatalf("ParseLevel(%q) = %s, want %s", in, lvl, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("unknown level accepted")
	}
}

func sprint(args ...any) string {
	var b strings.Builder
	for _, a := range args {
		if s, ok := a.(string); ok {
			b.WriteString(s)
		}
	}
	return b.String()
}
