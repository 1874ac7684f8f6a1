// Package obs is the fleet observability core (DESIGN.md §13): a
// dependency-free metrics registry (atomic counters, callback gauges and
// fixed-bucket histograms with a Prometheus text exporter), a shard-span
// tracer that records every shard's queued→leased/executing→completed
// lifecycle with worker attribution, and small log/slog helpers shared by
// the serve plane.
//
// The package's one invariant, load-bearing for the whole repo: NOTHING in
// here may influence experiment results. Metrics and spans are side
// channels — they never enter Config digests, cache keys, shard results or
// report bytes, so serial, parallel, warm-cache and distributed runs stay
// byte-identical with observability enabled.
//
// All types are goroutine-safe. Recording is designed for hot paths:
// counters are single atomic ops, histogram observation is one
// atomic add per bucket bound plus a CAS loop for the sum, and export
// takes a snapshot without blocking writers.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets is the default latency bucket layout in milliseconds: fine
// resolution where shard wall times live (single-digit ms) and coarse
// tails for whole sweeps.
var DefBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programmer error and are dropped —
// counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram counts observations into fixed cumulative buckets. The bucket
// bounds are upper limits; an implicit +Inf bucket catches the tail.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-added
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// kind enumerates the exported metric types.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// family is one named metric: a scalar, a callback, or a set of labeled
// counters sharing the name.
type family struct {
	name, help string
	kind       kind
	labels     []string // label names for vec families, nil for scalars

	// Exactly one of the following is populated.
	counter *Counter
	fn      func() float64 // CounterFunc/GaugeFunc callback
	hist    *Histogram

	mu       sync.Mutex
	children map[string]*child // label-values key → child (vec families)
}

type child struct {
	values  []string
	counter *Counter
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. The zero value is not usable; construct with
// NewRegistry. Registration is get-or-create: asking twice for the same
// name returns the same metric, and asking with a conflicting type panics
// (a programmer error worth failing loudly on).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the named family, creating it via make on first use and
// panicking on a type conflict.
func (r *Registry) lookup(name, help string, k kind, labels []string, make func() *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different type", name))
		}
		return f
	}
	f := make()
	f.name, f.help, f.kind = name, help, k
	f.labels = labels
	r.families[name] = f
	return f
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, kindCounter, nil, func() *family {
		return &family{counter: &Counter{}}
	})
	return f.counter
}

// GaugeFunc registers a gauge whose value is read from fn at export time —
// the idiom for mirroring state someone else owns (queue depths, pool
// occupancy, cache footprints). Re-registering replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, kindGauge, nil, func() *family { return &family{} })
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// CounterFunc is GaugeFunc with counter semantics: fn must be
// monotonically non-decreasing (e.g. a hit counter snapshot from another
// subsystem's Stats call).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, kindCounter, nil, func() *family { return &family{} })
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use with the
// given bucket bounds (nil selects DefBuckets). Bounds are fixed at
// creation; later calls ignore the argument.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.lookup(name, help, kindHistogram, nil, func() *family {
		return &family{hist: newHistogram(bounds)}
	})
	return f.hist
}

// CounterVec is a family of counters split by label values.
type CounterVec struct{ f *family }

// CounterVec returns the named labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	f := r.lookup(name, help, kindCounter, labelNames, func() *family {
		return &family{children: make(map[string]*child)}
	})
	return &CounterVec{f: f}
}

// childFor returns the labeled child, creating it on first use. The number
// of values must match the family's label names.
func (f *family) childFor(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{values: append([]string(nil), values...), counter: &Counter{}}
		f.children[key] = c
	}
	return c
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.childFor(values).counter }

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families sorted by name so the output
// is stable for diffing and tests.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	switch {
	case f.counter != nil:
		fmt.Fprintf(b, "%s %d\n", f.name, f.counter.Value())
	case f.hist != nil:
		writeHistogram(b, f.name, "", f.hist)
	case f.children != nil:
		f.mu.Lock()
		kids := make([]*child, 0, len(f.children))
		for _, c := range f.children {
			kids = append(kids, c)
		}
		f.mu.Unlock()
		sort.Slice(kids, func(i, j int) bool {
			return strings.Join(kids[i].values, "\x00") < strings.Join(kids[j].values, "\x00")
		})
		for _, c := range kids {
			fmt.Fprintf(b, "%s%s %d\n", f.name, formatLabels(f.labels, c.values), c.counter.Value())
		}
	default:
		// Callback family: snapshot fn under the family lock.
		f.mu.Lock()
		fn := f.fn
		f.mu.Unlock()
		if fn != nil {
			fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(fn()))
		}
	}
}

// writeHistogram renders the cumulative bucket lines plus _sum and _count.
// extraLabel (pre-rendered, may be empty) is inserted before the le label.
func writeHistogram(b *strings.Builder, name, extraLabel string, h *Histogram) {
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, extraLabel, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, extraLabel, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
}

func formatLabels(names, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		// Go's %q escaping is a superset of the Prometheus label escapes
		// (backslash, quote, newline).
		fmt.Fprintf(&b, "%s=%q", n, values[i])
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
