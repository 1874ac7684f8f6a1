package experiments

import (
	"context"
	"fmt"

	"columndisturb/internal/memsim"
)

func init() {
	register(Experiment{
		ID:    "prvr-sim",
		Paper: "§6.1 (fn 17: system integration of PRVR, future work)",
		Title: "PRVR vs naive refresh-rate increase in the cycle-level memory-system simulator",
		Plan:  planPRVRSim,
	})
	registerShardType(prvrMixPart{})
}

// prvrMixPart is one workload mix's weighted speedups under the three
// refresh mechanisms, plus each engine's (deterministic) refresh-rate
// statistics.
type prvrMixPart struct {
	Base, Naive, PRVR                float64
	BaseStats, NaiveStats, PRVRStats memsim.RefreshStats
}

// planPRVRSim shards the cycle-level PRVR evaluation by workload mix: each
// shard measures its mix's solo IPCs and the weighted speedup under the
// unprotected baseline, the naive 8 ms fix, and PRVR. The simulation goes
// beyond the paper's analytic PRVR estimate (our sec61 runner): every bank
// hosts a continuously hammered aggressor, so PRVR must refresh 3072
// victim rows per bank within each 8 ms time-to-first-bitflip budget, on
// top of the regular 32 ms periodic refresh.
func planPRVRSim(cfg Config) (*Plan, error) {
	sys := memsim.DefaultSystem()
	sys.TRFCns = 410 // §6.1's 32 Gb DDR5 point
	sys.MeasureInstr = cfg.MeasureInstr
	sys.WarmupInstr = cfg.MeasureInstr / 5
	if cfg.MLP > 0 {
		sys.MLP = cfg.MLP
	}
	// Validate the tweaked timing set at plan time, before any shard runs.
	if _, err := sys.Timing(); err != nil {
		return nil, fmt.Errorf("prvr-sim: %v", err)
	}
	mixes := memsim.Mixes(cfg.Mixes)
	seed := memsim.RunSeed(cfg.Seed, 61)

	shards := make([]Shard, len(mixes))
	for i, mix := range mixes {
		i, mix := i, mix
		shards[i] = Shard{
			Label: shardLabel("prvr-sim", "mix", fmt.Sprintf("%d", i)),
			Run: func(context.Context) (any, error) {
				solos := make([]float64, len(mix))
				for j, w := range mix {
					ipc, err := memsim.SoloIPC(sys, w, seed)
					if err != nil {
						return nil, err
					}
					solos[j] = ipc
				}
				ws := func(build func() (memsim.RefreshEngine, error)) (float64, memsim.RefreshStats, error) {
					eng, err := build()
					if err != nil {
						return 0, memsim.RefreshStats{}, err
					}
					st := eng.Stats()
					v, _, err := memsim.WeightedSpeedup(sys, mix, eng, seed, solos)
					return v, st, err
				}
				var part prvrMixPart
				var err error
				if part.Base, part.BaseStats, err = ws(func() (memsim.RefreshEngine, error) {
					return memsim.PeriodicRefresh(sys, 32)
				}); err != nil {
					return nil, err
				}
				if part.Naive, part.NaiveStats, err = ws(func() (memsim.RefreshEngine, error) {
					return memsim.PeriodicRefresh(sys, 8)
				}); err != nil {
					return nil, err
				}
				if part.PRVR, part.PRVRStats, err = ws(func() (memsim.RefreshEngine, error) {
					return memsim.PRVR(sys, 32, 3072, 8)
				}); err != nil {
					return nil, err
				}
				return part, nil
			},
		}
	}
	merge := func(parts []any) (*Result, error) {
		if len(parts) == 0 {
			return nil, fmt.Errorf("prvr-sim: no workload mixes to merge (Config.Mixes = %d)", cfg.Mixes)
		}
		res := &Result{
			ID:      "prvr-sim",
			Title:   "Weighted speedup under ColumnDisturb mitigations (normalized to the unprotected 32 ms baseline)",
			Headers: []string{"mechanism", "WS/WS(32ms)", "refresh ops/s (REFab + rows/bank)"},
		}
		var base, naive, prvr float64
		for _, raw := range parts {
			part := raw.(prvrMixPart)
			base += part.Base
			naive += part.Naive
			prvr += part.PRVR
		}
		n := float64(len(parts))
		base, naive, prvr = base/n, naive/n, prvr/n
		first := parts[0].(prvrMixPart)

		row := func(name string, ws float64, st memsim.RefreshStats) {
			res.AddRow(name, fmtF(ws/base),
				fmt.Sprintf("%.0f + %.0f", st.AllBankPerSec, st.RowPerSecPerBank))
		}
		row("periodic 32 ms (unprotected)", base, first.BaseStats)
		row("periodic 8 ms (naive fix)", naive, first.NaiveStats)
		row("PRVR (3072 victims / 8 ms / bank)", prvr, first.PRVRStats)

		naiveLoss := 1 - naive/base
		prvrLoss := 1 - prvr/base
		res.AddNote("naive fix costs %.1f%% of baseline performance; PRVR costs %.1f%%", naiveLoss*100, prvrLoss*100)
		if naiveLoss > 0 {
			res.AddNote("PRVR eliminates %.0f%% of the naive fix's simulated slowdown (analytic §6.1 estimate: 70.5%%; see sec61)",
				(naiveLoss-prvrLoss)/naiveLoss*100)
		}
		res.AddNote("extension beyond the paper: fn 17 leaves PRVR system integration to future work; " +
			"here victim refreshes run as bank-granular DRFM-style operations staggered across banks")
		return res, nil
	}
	return &Plan{Shards: shards, Merge: merge}, nil
}
