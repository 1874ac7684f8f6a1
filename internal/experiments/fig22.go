package experiments

import (
	"context"
	"fmt"

	"columndisturb/internal/chipdb"
	"columndisturb/internal/core"
	"columndisturb/internal/dram"
	"columndisturb/internal/memsim"
	"columndisturb/internal/sim/rng"
	"columndisturb/internal/sim/stats"
)

func init() {
	register(Experiment{
		ID:    "fig22",
		Paper: "Fig 22",
		Title: "Refresh operations vs proportion of weak rows",
		Plan:  planFig22,
	})
	registerShardType(fig22Part{})
}

// fig22StrongTimesMs are the swept strong-row retention times.
var fig22StrongTimesMs = []float64{128, 256, 512, 1024}

// fig22Part is one strong-retention-time point: the measured weak-row
// proportions. The refresh-operation costs they imply are derived in the
// merge step (one source of truth — a cached part carries only what was
// sampled, never values a formula change could leave stale).
type fig22Part struct {
	StrongMs          float64
	RetW, CDW, CDMaxW float64
}

// weakFractions measures the proportion of weak rows (rows with ≥1 bitflip
// within the strong-row retention time) across all DDR4 modules at 65 °C,
// for the retention-only and ColumnDisturb conditions. r must be the
// point's own keyed stream so sibling shards stay decorrelated.
func weakFractions(cfg Config, strongMs float64, r *rng.Rand) (retMean, cdMean, cdMax float64) {
	var retVals, cdVals []float64
	for _, m := range chipdb.DDR4Modules() {
		p := m.BuildParams()
		g := m.Geometry()
		rows := float64(g.RowsPerSubarray)
		for _, s := range sampleSubarrayCounts(m, core.RetentionClasses(p, dram.PatFF),
			65, strongMs, cfg.SubarraysPerModule, r) {
			retVals = append(retVals, float64(s.RowsWith)/rows)
		}
		for _, s := range sampleSubarrayCounts(m, core.AggressorSubarrayClasses(p, worstCaseSetup()),
			65, strongMs, cfg.SubarraysPerModule, r) {
			cdVals = append(cdVals, float64(s.RowsWith)/rows)
		}
	}
	retS := stats.Summarize(retVals)
	cdS := stats.Summarize(cdVals)
	return retS.Mean, cdS.Mean, cdS.Max
}

// planFig22 shards Fig 22 by strong-row retention time: each shard measures
// the weak-row proportions of the whole DDR4 population at one point of the
// sweep (its own keyed RNG stream) and prices them in refresh operations.
// The 128 ms vs 1024 ms comparison notes are computed in the merge step.
func planFig22(cfg Config) (*Plan, error) {
	shards := make([]Shard, len(fig22StrongTimesMs))
	for i, st := range fig22StrongTimesMs {
		i, st := i, st
		shards[i] = Shard{
			Label: shardLabel("fig22", "strongRT", fmt.Sprintf("%.0fms", st)),
			Run: func(context.Context) (any, error) {
				r := cfg.shardRand(22, uint64(i))
				retW, cdW, cdMaxW := weakFractions(cfg, st, r)
				return fig22Part{
					StrongMs: st,
					RetW:     retW, CDW: cdW, CDMaxW: cdMaxW,
				}, nil
			},
		}
	}
	merge := func(parts []any) (*Result, error) {
		res := &Result{
			ID:      "fig22",
			Title:   "Row refresh operations normalized to 64 ms periodic refresh",
			Headers: []string{"strong RT(ms)", "weak=0", "weak=0.1", "weak=0.5", "weak=1", "RET empir.", "CD mean empir.", "CD max empir."},
		}
		type pricedPart struct {
			fig22Part
			opsRet, opsCD, opsCDMax float64
		}
		markers := map[float64]pricedPart{}
		for _, raw := range parts {
			part, ok := raw.(fig22Part)
			if !ok {
				return nil, fmt.Errorf("fig22: part has type %T, want fig22Part", raw)
			}
			mk := pricedPart{
				fig22Part: part,
				opsRet:    memsim.NormalizedRefreshOps(part.RetW, part.StrongMs),
				opsCD:     memsim.NormalizedRefreshOps(part.CDW, part.StrongMs),
				opsCDMax:  memsim.NormalizedRefreshOps(part.CDMaxW, part.StrongMs),
			}
			markers[mk.StrongMs] = mk
			res.AddRow(fmt.Sprintf("%.0f", mk.StrongMs),
				fmtF(memsim.NormalizedRefreshOps(0, mk.StrongMs)),
				fmtF(memsim.NormalizedRefreshOps(0.1, mk.StrongMs)),
				fmtF(memsim.NormalizedRefreshOps(0.5, mk.StrongMs)),
				fmtF(memsim.NormalizedRefreshOps(1, mk.StrongMs)),
				fmt.Sprintf("w=%.4f→%s ops", mk.RetW, fmtF(mk.opsRet)),
				fmt.Sprintf("w=%.4f→%s ops", mk.CDW, fmtF(mk.opsCD)),
				fmt.Sprintf("w=%.4f→%s ops", mk.CDMaxW, fmtF(mk.opsCDMax)))
		}
		m128, m1024 := markers[128], markers[1024]
		res.AddNote("retention-weak rows: 1024 ms strong RT needs %.1f%% fewer refreshes than 128 ms (paper: 43.1%%)",
			(1-m1024.opsRet/m128.opsRet)*100)
		res.AddNote("ColumnDisturb at 1024 ms strong RT: refresh operations grow %.2fx on average and %.2fx at worst vs retention-only (paper: 3.02x / 14.43x)",
			stats.Ratio(m1024.opsCD, m1024.opsRet), stats.Ratio(m1024.opsCDMax, m1024.opsRet))
		return res, nil
	}
	return &Plan{Shards: shards, Merge: merge}, nil
}
