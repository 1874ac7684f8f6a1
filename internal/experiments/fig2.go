package experiments

import (
	"context"
	"fmt"

	"columndisturb/internal/bender"
	"columndisturb/internal/charz"
	"columndisturb/internal/chipdb"
	"columndisturb/internal/dram"
)

func init() {
	register(Experiment{
		ID:    "fig2",
		Paper: "Fig 2, Obs 4-6",
		Title: "ColumnDisturb vs RowHammer vs RowPress vs retention across three subarrays (S0, 16 s)",
		Plan:  planFig2,
	})
	registerShardType(fig2Part{})
}

// fig2Geometry builds the three-subarray slice of the representative module
// the figure characterizes.
func fig2Geometry(cfg Config) dram.Geometry {
	return dram.Geometry{
		Banks: 1, SubarraysPerBank: 3,
		RowsPerSubarray: cfg.CellRows, Cols: cfg.CellCols, Chips: 8,
	}
}

// fig2Part is one experiment arm's per-subarray flip map.
type fig2Part struct {
	Arm   string // "press", "hammer" or "idle"
	Flips map[int][]charz.RowFlips
}

// planFig2 shards Fig 2 by experiment arm: the pressing run (ColumnDisturb
// + RowPress), the hammering run (RowHammer) and the idle retention
// control each get their own shard. Every arm opens its own module
// instance — exactly like re-initializing the module between tests on the
// bench — so the shards share no device state and the result is
// deterministic for any worker count. The cross-arm comparison (Obs 4-6)
// happens in the merge step.
func planFig2(cfg Config) (*Plan, error) {
	spec, _ := chipdb.ByID("S0")
	g := fig2Geometry(cfg)
	const durationMs = 16_000.0

	openHost := func() (*bender.Host, error) {
		mod, err := spec.OpenWithGeometry(g)
		if err != nil {
			return nil, err
		}
		return bender.NewHost(mod), nil
	}

	agg := g.SubarrayBase(1) + g.RowsPerSubarray/2
	subs := []int{0, 1, 2}

	press := func(arm string, tAggOnNs float64) Shard {
		return Shard{
			Label: shardLabel("fig2", "arm", arm),
			Run: func(context.Context) (any, error) {
				h, err := openHost()
				if err != nil {
					return nil, err
				}
				flips, err := charz.RunDisturb(h, charz.DisturbConfig{
					Bank: 0, AggRow: agg, Mode: charz.ModeHammer,
					AggPattern: dram.Pat00, VictimPattern: dram.PatFF,
					DurationMs: durationMs, TAggOnNs: tAggOnNs, TRPNs: 14,
					Subarrays: subs,
				}, nil)
				if err != nil {
					return nil, err
				}
				return fig2Part{Arm: arm, Flips: flips}, nil
			},
		}
	}
	idle := Shard{
		Label: shardLabel("fig2", "arm", "idle"),
		Run: func(context.Context) (any, error) {
			h, err := openHost()
			if err != nil {
				return nil, err
			}
			flips, err := charz.RunDisturb(h, charz.DisturbConfig{
				Bank: 0, Mode: charz.ModeIdle, VictimPattern: dram.PatFF,
				DurationMs: durationMs, Subarrays: subs,
			}, nil)
			if err != nil {
				return nil, err
			}
			return fig2Part{Arm: "idle", Flips: flips}, nil
		},
	}

	shards := []Shard{
		press("press", 70_200), // ColumnDisturb + RowPress arm
		press("hammer", 36),    // RowHammer arm
		idle,                   // retention control
	}

	merge := func(parts []any) (*Result, error) {
		arms := map[string]map[int][]charz.RowFlips{}
		for _, raw := range parts {
			part, ok := raw.(fig2Part)
			if !ok {
				return nil, fmt.Errorf("fig2: part has type %T, want fig2Part", raw)
			}
			arms[part.Arm] = part.Flips
		}
		pressed, hammered, idleFlips := arms["press"], arms["hammer"], arms["idle"]

		res := &Result{
			ID:      "fig2",
			Title:   "Bitflips across three consecutive subarrays (module S0, 16 s)",
			Headers: []string{"subarray", "series", "bitflips", "bitflips/row", "rows w/ flips", "rows"},
		}
		neighborRows := map[int]bool{agg - 1: true, agg + 1: true}
		cdTotals := map[int]charz.Totals{}
		retTotals := map[int]charz.Totals{}
		var rhFlips, rpFlips, cdNbrMin, cdNbrMax int
		cdNbrMin = -1
		for _, s := range subs {
			var cdRows []charz.RowFlips
			for _, rf := range pressed[s] {
				switch {
				case rf.Row == agg:
				case neighborRows[rf.Row]:
					rpFlips += rf.Flips
				default:
					cdRows = append(cdRows, rf)
					if cdNbrMin == -1 || rf.Flips < cdNbrMin {
						cdNbrMin = rf.Flips
					}
					if rf.Flips > cdNbrMax {
						cdNbrMax = rf.Flips
					}
				}
			}
			for _, rf := range hammered[s] {
				if neighborRows[rf.Row] {
					rhFlips += rf.Flips
				}
			}
			cd := charz.Aggregate(cdRows)
			ret := charz.Aggregate(idleFlips[s])
			cdTotals[s] = cd
			retTotals[s] = ret
			label := "neighbour"
			if s == 1 {
				label = "aggressor"
			}
			res.AddRow(fmt.Sprintf("%d (%s)", s, label), "ColumnDisturb",
				fmt.Sprintf("%d", cd.Flips), fmtF(float64(cd.Flips)/float64(cd.RowsTested)),
				fmt.Sprintf("%d", cd.RowsWith), fmt.Sprintf("%d", cd.RowsTested))
			res.AddRow("", "Retention",
				fmt.Sprintf("%d", ret.Flips), fmtF(float64(ret.Flips)/float64(ret.RowsTested)),
				fmt.Sprintf("%d", ret.RowsWith), fmt.Sprintf("%d", ret.RowsTested))
		}
		res.AddRow("±1 of aggressor", "RowHammer", fmt.Sprintf("%d", rhFlips), fmtF(float64(rhFlips)/2), "-", "2")
		res.AddRow("±1 of aggressor", "RowPress", fmt.Sprintf("%d", rpFlips), fmtF(float64(rpFlips)/2), "-", "2")

		aggPerRow := float64(cdTotals[1].Flips) / float64(cdTotals[1].RowsTested)
		nbrPerRow := float64(cdTotals[0].Flips+cdTotals[2].Flips) /
			float64(cdTotals[0].RowsTested+cdTotals[2].RowsTested)
		retPerRow := float64(retTotals[0].Flips+retTotals[1].Flips+retTotals[2].Flips) /
			float64(retTotals[0].RowsTested+retTotals[1].RowsTested+retTotals[2].RowsTested)
		res.AddNote("Obs 4: ColumnDisturb rows affected: %d of %d across three subarrays",
			cdTotals[0].RowsWith+cdTotals[1].RowsWith+cdTotals[2].RowsWith, 3*g.RowsPerSubarray)
		if nbrPerRow > 0 {
			res.AddNote("Obs 5: aggressor-subarray/neighbour bitflips per row: %.2fx (paper: 1.45x)",
				aggPerRow/nbrPerRow)
		}
		if retPerRow > 0 {
			res.AddNote("Obs 6: CD/retention bitflips per row at 16 s: agg %.2fx, nbr %.2fx (paper: 7.07x / 4.87x)",
				aggPerRow/retPerRow, nbrPerRow/retPerRow)
		}
		res.AddNote("fn 9: RowHammer ±1-row bitflips %d, RowPress %d, CD per-row range %d-%d",
			rhFlips, rpFlips, cdNbrMin, cdNbrMax)
		return res, nil
	}

	return &Plan{Shards: shards, Merge: merge}, nil
}
