package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"columndisturb"
)

// Layer groups for the per-layer shard time split: which package does an
// experiment's shard work. Experiments in none of them (table1, sec61)
// count only toward their own engine.shard_ms.<id>.
var (
	charzExperiments  = []string{"fig2", "fig21"}
	memsimExperiments = []string{"fig23", "prvr-sim"}
	coreExperiments   = []string{
		"ablation-bitline", "ablation-f", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20", "fig22", "ttf",
	}
)

// span is one traced interval at a layer boundary. Offsets are
// milliseconds from the traced run's start; Parent 0 marks a root.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Op     int               `json:"op"`
	Name   string            `json:"name"`
	Start  float64           `json:"start_ms"`
	End    float64           `json:"end_ms"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		var iv [][2]float64
		for _, c := range children[s.ID] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				iv = append(iv, [2]float64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := 0.0, s.Start
		for _, x := range iv {
			lo := max(x[0], end)
			if x[1] > lo {
				covered += x[1] - lo
				end = x[1]
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// collector buffers one client's events while a traced operation runs.
type collector struct {
	mu     sync.Mutex
	on     bool
	events []columndisturb.Event
}

func (c *collector) observe(ev columndisturb.Event) {
	c.mu.Lock()
	if c.on {
		c.events = append(c.events, ev)
	}
	c.mu.Unlock()
}

func (c *collector) begin() {
	c.mu.Lock()
	c.on, c.events = true, nil
	c.mu.Unlock()
}

func (c *collector) end() []columndisturb.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.on = false
	evs := c.events
	c.events = nil
	return evs
}

// opStats is the per-layer breakdown of one traced operation.
type opStats struct {
	wallMs     float64
	busyMs     float64 // Σ computed shard time
	maxShardMs float64
	waitMs     float64 // Σ (shard start − job start) over computed shards
	computed   int
	shards     int
	cached     int
	byExp      map[string]float64
	// Means over the operation's jobs.
	submitMs, queueMs, execMs float64
	fetchMs                   float64
	utilization               float64
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	ops   []opStats
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.t0)) / float64(time.Millisecond)
}

// jobEvents is one job's events within an operation.
type jobEvents struct {
	exp                         string
	queued, started, terminated time.Time
	shards                      []columndisturb.Event
}

// addOp turns one traced operation's events into spans and layer stats:
// the operation span (the runner call), one service.job span per job from
// job_queued to its terminal event, and one engine.shard span per shard
// ending at its shard_done event and lasting its reported compute time.
func (t *tracer) addOp(i int, req columndisturb.Request, start, end time.Time, events []columndisturb.Event, workers int) {
	jobs := map[string]*jobEvents{}
	var order []string
	for _, ev := range events {
		j := jobs[ev.Job]
		if j == nil {
			j = &jobEvents{exp: ev.Experiment}
			jobs[ev.Job] = j
			order = append(order, ev.Job)
		}
		switch ev.Type {
		case columndisturb.EventJobQueued:
			j.queued = ev.Time
		case columndisturb.EventJobStarted:
			j.started = ev.Time
		case columndisturb.EventShardDone:
			j.shards = append(j.shards, ev)
		case columndisturb.EventJobFinished, columndisturb.EventJobFailed:
			j.terminated = ev.Time
		}
	}

	st := opStats{wallMs: float64(end.Sub(start)) / float64(time.Millisecond), byExp: map[string]float64{}}
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.add(span{Op: i, Name: "runner", Start: t.ms(start), End: t.ms(end),
		Attrs: map[string]string{"experiments": fmt.Sprint(len(req.Experiments)), "seed": req.Overrides["seed"]}})
	lastDone := start
	for _, id := range order {
		j := jobs[id]
		if j.queued.IsZero() || j.terminated.IsZero() {
			continue // a partial stream belongs to a failed operation
		}
		js := t.add(span{Parent: root, Op: i, Name: "service.job", Start: t.ms(j.queued), End: t.ms(j.terminated),
			Attrs: map[string]string{"job": id, "experiment": j.exp}})
		st.submitMs += float64(j.queued.Sub(start)) / float64(time.Millisecond)
		st.queueMs += float64(j.started.Sub(j.queued)) / float64(time.Millisecond)
		st.execMs += float64(j.terminated.Sub(j.started)) / float64(time.Millisecond)
		if j.terminated.After(lastDone) {
			lastDone = j.terminated
		}
		for _, sh := range j.shards {
			st.shards++
			cached := sh.Cached != nil && *sh.Cached
			attrs := map[string]string{"shard": sh.Shard, "cached": fmt.Sprint(cached)}
			if sh.Worker != "" {
				attrs["worker"] = sh.Worker
			}
			from := t.ms(sh.Time) - sh.ElapsedMs
			t.add(span{Parent: js, Op: i, Name: "engine.shard", Start: from, End: t.ms(sh.Time), Attrs: attrs})
			if cached {
				st.cached++
				continue
			}
			st.computed++
			st.busyMs += sh.ElapsedMs
			st.byExp[j.exp] += sh.ElapsedMs
			st.maxShardMs = max(st.maxShardMs, sh.ElapsedMs)
			st.waitMs += from - t.ms(j.started)
		}
	}
	if n := float64(len(order)); n > 0 {
		st.submitMs /= n
		st.queueMs /= n
		st.execMs /= n
	}
	st.fetchMs = float64(end.Sub(lastDone)) / float64(time.Millisecond)
	if workers > 0 && st.wallMs > 0 {
		st.utilization = st.busyMs / (st.wallMs * float64(workers))
	}
	t.ops = append(t.ops, st)
}

// add appends a span, assigning its ID. Caller holds t.mu.
func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// layerMetrics derives every per-layer metric but trace.overhead_frac from
// the traced operations, the /v1/metrics deltas over the whole run and the
// layer probes.
func (t *tracer) layerMetrics(samples []sample, before, after map[string]float64, probes map[string]metric) map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]metric{}
	for k, v := range probes {
		out[k] = v
	}
	n := float64(len(t.ops))
	mean := func(f func(opStats) float64) float64 {
		if n == 0 {
			return 0
		}
		s := 0.0
		for _, o := range t.ops {
			s += f(o)
		}
		return s / n
	}
	out["engine.shard_busy_ms"] = metric{mean(func(o opStats) float64 { return o.busyMs }), "ms"}
	out["engine.max_shard_ms"] = metric{mean(func(o opStats) float64 { return o.maxShardMs }), "ms"}
	out["engine.utilization"] = metric{mean(func(o opStats) float64 { return o.utilization }), "ratio"}
	var wait float64
	var computed, shards, cached int
	for _, o := range t.ops {
		wait += o.waitMs
		computed += o.computed
		shards += o.shards
		cached += o.cached
	}
	out["engine.queue_wait_ms"] = metric{ratio(wait, float64(computed)), "ms"}
	out["cache.hit_ratio"] = metric{ratio(float64(cached), float64(shards)), "ratio"}
	for _, e := range columndisturb.ListExperiments() {
		id := e.ID
		out["engine.shard_ms."+id] = metric{mean(func(o opStats) float64 { return o.byExp[id] }), "ms"}
	}
	group := func(ids []string) float64 {
		return mean(func(o opStats) float64 {
			s := 0.0
			for _, id := range ids {
				s += o.byExp[id]
			}
			return s
		})
	}
	out["core.shard_ms"] = metric{group(coreExperiments), "ms"}
	out["charz.shard_ms"] = metric{group(charzExperiments), "ms"}
	out["memsim.shard_ms"] = metric{group(memsimExperiments), "ms"}
	out["client.submit_ms"] = metric{mean(func(o opStats) float64 { return o.submitMs }), "ms"}
	out["service.queue_ms"] = metric{mean(func(o opStats) float64 { return o.queueMs }), "ms"}
	out["service.exec_ms"] = metric{mean(func(o opStats) float64 { return o.execMs }), "ms"}
	out["client.fetch_ms"] = metric{mean(func(o opStats) float64 { return o.fetchMs }), "ms"}

	// Self time per span, averaged per operation (runner) and per job
	// (service): a job's self time is the part of its life when none of
	// its shards ran — planning, waiting for the pool, merge and render.
	self := selfTimes(t.spans)
	byName := map[string]float64{}
	count := map[string]float64{}
	for _, s := range t.spans {
		byName[s.Name] += self[s.ID]
		count[s.Name]++
	}
	out["runner.self_ms"] = metric{ratio(byName["runner"], count["runner"]), "ms"}
	out["service.self_ms"] = metric{ratio(byName["service.job"], count["service.job"]), "ms"}

	d := func(name string) float64 { return after[name] - before[name] }
	out["cache.hits"] = metric{d("cdlab_cache_hits_total"), "count"}
	out["cache.misses"] = metric{d("cdlab_cache_misses_total"), "count"}
	out["cache.puts"] = metric{d("cdlab_cache_puts_total"), "count"}
	out["wal.records"] = metric{d("cdlab_wal_records_total"), "count"}
	out["wal.syncs"] = metric{d("cdlab_wal_syncs_total"), "count"}
	out["wal.bytes"] = metric{d("cdlab_wal_bytes_total"), "B"}
	out["wal.records_per_request"] = metric{ratio(d("cdlab_wal_records_total"), float64(len(samples))), "ratio"}
	out["dispatch.lease_wait_ms"] = metric{ratio(d("cdlab_lease_wait_ms_sum"), d("cdlab_lease_wait_ms_count")), "ms"}
	l2c := ratio(d("cdlab_lease_to_complete_ms_sum"), d("cdlab_lease_to_complete_ms_count"))
	out["dispatch.lease_to_complete_ms"] = metric{l2c, "ms"}
	overhead := 0.0
	if l2c > 0 {
		overhead = l2c - probes["dispatch.execute_task_ms"].Value
	}
	out["dispatch.overhead_ms"] = metric{overhead, "ms"}
	out["dispatch.requeues"] = metric{d("cdlab_dispatch_requeues_total"), "count"}
	out["dispatch.worker_tasks"] = metric{d("cdlab_worker_tasks_total"), "count"}
	return out
}

// overheadFrac is the tracing overhead: for each input class with traced
// and untraced operations, p50(traced)/p50(untraced); the median of those
// ratios, minus one. Comparing within a class keeps the traced half's
// experiment mix out of the figure.
func overheadFrac(samples []sample, class func(op int) string) float64 {
	traced, untraced := map[string][]float64{}, map[string][]float64{}
	for _, s := range samples {
		ms := float64(s.latency) / float64(time.Millisecond)
		if s.traced {
			traced[class(s.op)] = append(traced[class(s.op)], ms)
		} else {
			untraced[class(s.op)] = append(untraced[class(s.op)], ms)
		}
	}
	var ratios []float64
	for k, t := range traced {
		if u := untraced[k]; len(u) > 0 {
			ratios = append(ratios, median(t)/median(u))
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return median(ratios) - 1
}

// ratio is a/b, or 0 when b is 0 (the layer did no work in this run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// write stores the run's spans as JSON lines, after a fingerprint line.
func (t *tracer) write(dir string, opts options, host hostInfo) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", opts.workload, opts.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"host": host}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
