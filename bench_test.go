package columndisturb

// The benchmark harness regenerates every table and figure of the paper
// (one benchmark per artifact, at the benchmark-scale configuration; use
// `cmd/cdlab run <id> -full` for the paper-breadth sweeps) plus micro
// benchmarks of the core machinery. Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"testing"

	"columndisturb/internal/bender"
	"columndisturb/internal/charz"
	"columndisturb/internal/chipdb"
	"columndisturb/internal/core"
	"columndisturb/internal/dram"
	"columndisturb/internal/ecc"
	"columndisturb/internal/experiments"
	"columndisturb/internal/memsim"
	"columndisturb/internal/sim/rng"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := experiments.Small()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.RunWith(context.Background(), cfg, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// One benchmark per paper artifact (see DESIGN.md §4 for the experiment
// index mapping each to its workload and modules).

func BenchmarkTable1ChipCatalog(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkFig2BitflipMap(b *testing.B)           { benchExperiment(b, "fig2") }
func BenchmarkFig6TimeToFirstByDie(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7BitflipDirection(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8AggressorDataPattern(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9AggressorOnTime(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10ColumnVoltage(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11BlastRadius(b *testing.B)         { benchExperiment(b, "fig11") }
func BenchmarkFig12HBM2(b *testing.B)                { benchExperiment(b, "fig12") }
func BenchmarkFig13Temperature(b *testing.B)         { benchExperiment(b, "fig13") }
func BenchmarkFig14TemperatureFraction(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15BlastRadiusGrid(b *testing.B)     { benchExperiment(b, "fig15") }
func BenchmarkFig16AggOnSweep(b *testing.B)          { benchExperiment(b, "fig16") }
func BenchmarkFig17AccessPattern(b *testing.B)       { benchExperiment(b, "fig17") }
func BenchmarkFig18DataPatternTTF(b *testing.B)      { benchExperiment(b, "fig18") }
func BenchmarkFig19DataPatternCount(b *testing.B)    { benchExperiment(b, "fig19") }
func BenchmarkFig20AggressorLocation(b *testing.B)   { benchExperiment(b, "fig20") }
func BenchmarkFig21ECCChunks(b *testing.B)           { benchExperiment(b, "fig21") }
func BenchmarkFig22RefreshOps(b *testing.B)          { benchExperiment(b, "fig22") }
func BenchmarkFig23RAIDR(b *testing.B)               { benchExperiment(b, "fig23") }
func BenchmarkSec61Mitigations(b *testing.B)         { benchExperiment(b, "sec61") }
func BenchmarkTTFDistributions(b *testing.B)         { benchExperiment(b, "ttf") }
func BenchmarkPRVRSimulation(b *testing.B)           { benchExperiment(b, "prvr-sim") }
func BenchmarkAblationCouplingLaw(b *testing.B)      { benchExperiment(b, "ablation-f") }
func BenchmarkAblationBitline(b *testing.B)          { benchExperiment(b, "ablation-bitline") }

// --- Full-sweep benchmarks (the `run all` trajectory) ---

// benchRunAll measures a whole-registry sweep through the public Runner
// API — the same path `cdlab run all` takes. With the legacy serial Run
// contract gone, every experiment is a multi-shard plan, so the parallel
// variant scales the formerly-serial experiments (fig21–fig23, sec61, ttf,
// the ablations) too, and the warm-cache variant replays the entire sweep
// from the shard cache with zero recomputation.
func benchRunAll(b *testing.B, workers int, warm bool) {
	b.Helper()
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	opts := LocalOptions{Workers: workers}
	if warm {
		opts.CacheDir = b.TempDir()
	}
	r, err := NewLocalRunner(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	req := Request{Experiments: ids}
	if warm {
		// Prime the cache outside the timed region; the measured runs
		// recompute zero shards.
		if _, err := r.Run(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	primedMisses := r.CacheStats().Misses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Reports) != len(ids) {
			b.Fatalf("got %d reports, want %d", len(res.Reports), len(ids))
		}
	}
	b.StopTimer()
	if warm {
		if grew := r.CacheStats().Misses - primedMisses; grew > 0 {
			b.Fatalf("warm sweep recomputed %d shards, want 0", grew)
		}
	}
}

// BenchmarkRunAllSerial is the single-worker reference sweep.
func BenchmarkRunAllSerial(b *testing.B) { benchRunAll(b, 1, false) }

// BenchmarkRunAllParallel runs the sweep at GOMAXPROCS workers; the ratio
// to BenchmarkRunAllSerial tracks how much of the registry actually
// scales (every experiment shards, so the whole sweep does).
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, 0, false) }

// BenchmarkRunAllWarmCache replays the sweep from a primed shard cache —
// the floor of the perf trajectory (pure decode + merge, no simulation).
func BenchmarkRunAllWarmCache(b *testing.B) { benchRunAll(b, 0, true) }

// --- Parallel experiment engine ---

// benchEngine runs the repo's widest sweep grid (fig15: manufacturer ×
// temperature × interval, 60 shards) through the experiment engine at the
// given worker bound. Serial vs parallel on the same workload measures the
// engine's scaling; results are bit-identical by construction (see
// internal/engine).
func benchEngine(b *testing.B, workers int) {
	b.Helper()
	e, ok := experiments.ByID("fig15")
	if !ok {
		b.Fatal("fig15 missing")
	}
	cfg := experiments.Small()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.RunWith(context.Background(), cfg, workers, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkEngineSerial is the single-worker reference path.
func BenchmarkEngineSerial(b *testing.B) { benchEngine(b, 1) }

// BenchmarkEngineParallel runs the same sweep at GOMAXPROCS workers. On a
// machine with GOMAXPROCS >= 4 this shows the engine's speedup over
// BenchmarkEngineSerial (the sweep is embarrassingly parallel across its
// 60 shards); on a single-core machine the two coincide. Serial/parallel
// byte-identity is pinned by TestSerialParallelBitIdentical in
// internal/experiments.
func BenchmarkEngineParallel(b *testing.B) { benchEngine(b, 0) }

// --- Micro benchmarks of the core machinery ---

// BenchmarkDeviceReadRow measures the cell-explicit tier's hot path: a
// fault-evaluated read of one 1024-column row.
func BenchmarkDeviceReadRow(b *testing.B) {
	spec, _ := chipdb.ByID("S0")
	mod, err := spec.Open()
	if err != nil {
		b.Fatal(err)
	}
	if err := mod.WriteRowPattern(0, 5, dram.PatFF); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod.AdvanceNs(1e9) // one second of decay to evaluate per read
		if _, err := mod.ReadRow(0, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHammer512ms measures the analytic fast-forward of a full 512 ms
// pressing campaign.
func BenchmarkHammer512ms(b *testing.B) {
	spec, _ := chipdb.ByID("S0")
	mod, err := spec.Open()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mod.Device.HammerFor(0, 1536, 512e6, 70200, 14); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatisticalSubarray measures one statistical-tier subarray count
// experiment (1024 × 1024 cells).
func BenchmarkStatisticalSubarray(b *testing.B) {
	spec, _ := chipdb.ByID("S0")
	p := spec.BuildParams()
	cfg := core.SubarrayConfig{
		Params: p, TempC: 85, DurationMs: 512,
		Rows: 1024, Cols: 1024,
		Classes: core.AggressorSubarrayClasses(p, core.PatternSetup{
			AggPattern: dram.Pat00, VictimPattern: dram.PatFF,
			TAggOnNs: 70200, TRPNs: 14,
		}),
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SampleCounts(cfg, r)
	}
}

// BenchmarkTTFSample measures one order-statistic time-to-first-bitflip
// draw over a 1M-cell subarray.
func BenchmarkTTFSample(b *testing.B) {
	spec, _ := chipdb.ByID("M8")
	p := spec.BuildParams()
	m := core.NewRateModel(p, 85, p.RhoHammer(70200, 14, 0))
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SampleTTFms(1<<20, r)
	}
}

// BenchmarkSECDecode measures the (136,128) on-die ECC decode path.
func BenchmarkSECDecode(b *testing.B) {
	c, err := ecc.NewSEC(128)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 128)
	cw, err := c.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	cw[17] ^= 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmp := append([]byte(nil), cw...)
		if _, _, err := c.Decode(tmp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemsimMix measures one four-core memory-system simulation under
// RAIDR refresh.
func BenchmarkMemsimMix(b *testing.B) {
	sys := memsim.DefaultSystem()
	sys.WarmupInstr = 5000
	sys.MeasureInstr = 40000
	mix := memsim.Mixes(1)[0]
	rc := memsim.DefaultRAIDR(memsim.TrackerBloom)
	rc.WeakFraction = 0.001
	eng, _, err := memsim.NewRAIDR(sys, rc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := memsim.Run(sys, mix, eng, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemsimCommandLoop measures the command state machine's hot loop
// itself — one high-MPKI core against periodic refresh, so the per-access
// cost of the ACT/PRE/RD/WR constraint resolution (including the refresh
// free-span cache) dominates.
func BenchmarkMemsimCommandLoop(b *testing.B) {
	sys := memsim.DefaultSystem()
	sys.WarmupInstr = 0
	sys.MeasureInstr = 50000
	mix := []memsim.CoreWorkload{{Name: "hot", MPKI: 100, RowLocality: 0.5, WriteFrac: 0.3}}
	eng, err := memsim.PeriodicRefresh(sys, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := memsim.Run(sys, mix, eng, 11); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemsimCommandLoopNoRefresh is the same loop with the refresh
// schedule disabled — the delta to BenchmarkMemsimCommandLoop prices the
// refresh-gating machinery.
func BenchmarkMemsimCommandLoopNoRefresh(b *testing.B) {
	sys := memsim.DefaultSystem()
	sys.WarmupInstr = 0
	sys.MeasureInstr = 50000
	mix := []memsim.CoreWorkload{{Name: "hot", MPKI: 100, RowLocality: 0.5, WriteFrac: 0.3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := memsim.Run(sys, mix, memsim.NoRefresh(), 11); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiffReadsFiltered measures the readout diff hot loop — word-XOR
// flip extraction plus guard-band row filtering — over a 128-row, 1024-
// column read with a sparse sprinkle of flips, the shape every
// characterization experiment feeds it.
func BenchmarkDiffReadsFiltered(b *testing.B) {
	const rows, cols = 128, 1024
	recs := make([]bender.ReadRecord, rows)
	for r := range recs {
		words := make([]uint64, cols/64)
		dram.FillWords(words, dram.PatFF)
		if r%3 == 0 { // a third of the rows carry a couple of flips
			dram.SetWordBit(words, (r*37)%cols, 0)
			dram.SetWordBit(words, (r*613)%cols, 0)
		}
		recs[r] = bender.ReadRecord{Row: r, Data: words}
	}
	g := dram.SmallGeometry()
	f := &charz.Filter{ExcludedRows: charz.GuardRows(g, []int{16}, 4)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := charz.DiffReads(recs, dram.PatFF, f)
		if len(out) == 0 {
			b.Fatal("no rows diffed")
		}
	}
}

// BenchmarkCouplingEval measures the coupling nonlinearity evaluation that
// prices every epoch and column class: the exact Expm1 formula for a swept
// ΔV.
func BenchmarkCouplingEval(b *testing.B) {
	p := chipdb.DDR4Modules()[0].BuildParams()
	acc := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc += p.Coupling(float64(i%1024) / 1024)
	}
	_ = acc
}

// BenchmarkRowCloneScan measures the RowClone-based boundary reverse
// engineering of a small bank.
func BenchmarkRowCloneScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chip, err := OpenScaled("H0", 1, 3, 32, 128)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := chip.SubarrayBoundaries(0); err != nil {
			b.Fatal(err)
		}
	}
}
