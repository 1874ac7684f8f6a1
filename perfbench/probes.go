package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"columndisturb/internal/cache"
	"columndisturb/internal/chipdb"
	"columndisturb/internal/core"
	"columndisturb/internal/dispatch"
	"columndisturb/internal/dram"
	"columndisturb/internal/experiments"
	"columndisturb/internal/memsim"
	"columndisturb/internal/sim/rng"
	"columndisturb/internal/wal"
)

// medianCall times n calls of f one by one and returns the median.
func medianCall(n int, f func() error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds)), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runProbes times the layers' public functions on fixed inputs, outside
// the measured operations. The hit-path replay runs the cheap experiments
// at the workload seed shard by shard through the worker's entry point
// (dispatch.ExecuteTask) and then through what a cache hit costs the
// service: plan, gob decode, merge, render.
func runProbes(ctx context.Context, e *env) (map[string]metric, error) {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	spec, _ := chipdb.ByID("S0")
	p := spec.BuildParams()
	d, err := medianCall(50, func() error { spec.BuildParams(); return nil })
	if err != nil {
		return nil, err
	}
	put("faultmodel.build_params_us", us(d), "us")

	sc := core.SubarrayConfig{
		Params: p, TempC: 85, DurationMs: 512, Rows: 1024, Cols: 1024,
		Classes: core.AggressorSubarrayClasses(p, core.PatternSetup{
			AggPattern: dram.Pat00, VictimPattern: dram.PatFF, TAggOnNs: 70200, TRPNs: 14,
		}),
	}
	r := rng.New(1)
	d, _ = medianCall(15, func() error { core.SampleCounts(sc, r); return nil })
	put("core.sample_counts_us", us(d), "us")

	mod, err := spec.Open()
	if err != nil {
		return nil, err
	}
	if err := mod.WriteRowPattern(0, 5, dram.PatFF); err != nil {
		return nil, err
	}
	d, err = medianCall(200, func() error {
		mod.AdvanceNs(1e9)
		_, err := mod.ReadRow(0, 5)
		return err
	})
	if err != nil {
		return nil, err
	}
	put("dram.read_row_us", us(d), "us")

	sys := memsim.DefaultSystem()
	sys.WarmupInstr, sys.MeasureInstr = 5000, 40000
	mix := memsim.Mixes(1)[0]
	rc := memsim.DefaultRAIDR(memsim.TrackerBloom)
	rc.WeakFraction = 0.001
	eng, _, err := memsim.NewRAIDR(sys, rc)
	if err != nil {
		return nil, err
	}
	d, err = medianCall(5, func() error { _, err := memsim.Run(sys, mix, eng, 7); return err })
	if err != nil {
		return nil, err
	}
	put("memsim.run_ms", ms(d), "ms")

	replies, err := hitPathProbe(ctx, e, put)
	if err != nil {
		return nil, err
	}
	if err := storageProbes(e.dir, replies, put); err != nil {
		return nil, err
	}
	return out, nil
}

// hitPathProbe replays the cheap experiments at the workload seed and
// returns the shard replies, keyed as the service would cache them.
func hitPathProbe(ctx context.Context, e *env, put func(string, float64, string)) (map[cache.Key][]byte, error) {
	seed := strconv.FormatUint(e.opts.seed, 10)
	cfg, err := experiments.ResolveConfig("small", map[string]string{"seed": seed})
	if err != nil {
		return nil, err
	}
	codec := cache.Gob{}
	replies := map[cache.Key][]byte{}
	var plan, exec, decode, encode, merge, render time.Duration
	var bytes, tasks int
	var spec0 dispatch.TaskSpec
	for _, id := range cheapExperiments {
		exp, _ := experiments.ByID(id)
		var shards []experiments.Shard
		var mergeFn func([]any) (*experiments.Result, error)
		d, err := medianCall(3, func() error {
			var err error
			shards, mergeFn, err = experiments.BuildShards(exp, cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		plan += d
		parts := make([]any, len(shards))
		for i, sh := range shards {
			spec := dispatch.TaskSpec{Experiment: id, Config: cfg, Shard: i, Label: sh.Label}
			if tasks == 0 {
				spec0 = spec
			}
			start := time.Now()
			reply, err := dispatch.ExecuteTask(ctx, dispatch.EncodeTask(spec))
			if err != nil {
				return nil, err
			}
			exec += time.Since(start)
			tasks++
			bytes += len(reply)
			replies[cache.Key{Experiment: id, ConfigDigest: cfg.Digest(), Shard: sh.Label}] = reply

			start = time.Now()
			v, err := codec.Decode(reply)
			if err != nil {
				return nil, err
			}
			decode += time.Since(start)
			parts[i] = v
			start = time.Now()
			if _, err := codec.Encode(v); err != nil {
				return nil, err
			}
			encode += time.Since(start)
		}
		start := time.Now()
		res, err := mergeFn(parts)
		if err != nil {
			return nil, err
		}
		merge += time.Since(start)
		start = time.Now()
		text := res.String()
		render += time.Since(start)
		if want, ok := e.v.text(reportKey{id, seed}); ok && want != text {
			return nil, fmt.Errorf("probe: %s seed %s: replayed report differs from the served one", id, seed)
		}
	}
	n := float64(len(cheapExperiments))
	put("experiments.plan_ms", ms(plan)/n, "ms")
	put("cache.decode_ms", ms(decode)/n, "ms")
	put("cache.encode_ms", ms(encode)/n, "ms")
	put("cache.part_bytes", float64(bytes)/n, "B")
	put("experiments.merge_ms", ms(merge)/n, "ms")
	put("experiments.render_ms", ms(render)/n, "ms")
	put("dispatch.execute_task_ms", ms(exec)/float64(tasks), "ms")

	raw := dispatch.EncodeTask(spec0)
	d, _ := medianCall(500, func() error { dispatch.EncodeTask(spec0); return nil })
	put("dispatch.encode_task_us", us(d), "us")
	d, err = medianCall(500, func() error { _, err := dispatch.DecodeTask(raw); return err })
	if err != nil {
		return nil, err
	}
	put("dispatch.decode_task_us", us(d), "us")
	return replies, nil
}

// storageProbes times the WAL's durable append and the cache's put and
// get tiers in temporary directories under dir.
func storageProbes(dir string, replies map[cache.Key][]byte, put func(string, float64, string)) error {
	walDir := filepath.Join(dir, "probe-wal")
	defer os.RemoveAll(walDir)
	log, _, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		return err
	}
	rec := wal.Record{Type: 1, Data: make([]byte, 256)}
	d, err := medianCall(30, func() error { return log.AppendSync(rec) })
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	put("wal.append_sync_us", us(d), "us")

	cacheDir := filepath.Join(dir, "probe-cache")
	defer os.RemoveAll(cacheDir)
	store, err := cache.New(cache.Options{Dir: cacheDir})
	if err != nil {
		return err
	}
	keys := make([]cache.Key, 0, len(replies))
	for k := range replies {
		keys = append(keys, k)
	}
	var i int
	d, err = medianCall(len(keys), func() error { k := keys[i]; i++; return store.Put(k, replies[k]) })
	if err != nil {
		return err
	}
	put("cache.put_us", us(d), "us")
	i = 0
	d, err = medianCall(len(keys), func() error { return get(store, keys, &i) })
	if err != nil {
		return err
	}
	put("cache.get_mem_us", us(d), "us")
	// A fresh store over the same directory starts with an empty memory
	// level, so each first Get reads the disk tier.
	cold, err := cache.New(cache.Options{Dir: cacheDir})
	if err != nil {
		return err
	}
	i = 0
	d, err = medianCall(len(keys), func() error { return get(cold, keys, &i) })
	if err != nil {
		return err
	}
	put("cache.get_disk_us", us(d), "us")
	return nil
}

func get(s *cache.Store, keys []cache.Key, i *int) error {
	k := keys[*i]
	*i++
	if _, ok := s.Get(k); !ok {
		return fmt.Errorf("probe: cache lost %s", k.Shard)
	}
	return nil
}
