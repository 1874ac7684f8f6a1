package experiments

import (
	"context"
	"fmt"

	"columndisturb/internal/bender"
	"columndisturb/internal/charz"
	"columndisturb/internal/chipdb"
	"columndisturb/internal/dram"
	"columndisturb/internal/ecc"
	"columndisturb/internal/sim/rng"
)

func init() {
	register(Experiment{
		ID:    "fig21",
		Paper: "Fig 21, Obs 25-27",
		Title: "ColumnDisturb bitflips per 8-byte chunk and ECC effectiveness",
		Plan:  planFig21,
	})
	registerShardType(fig21Part{})
	registerShardType(fig21ECCPart{})
}

// fig21MaxK is the chunk-histogram ceiling (the paper's worst chunk has 15
// bitflips).
const fig21MaxK = 15

// fig21Part is one (module, interval) arm's chunk histogram.
type fig21Part struct {
	Module     string
	Mfr        string
	IntervalMs float64
	Hist       []int // index k = chunks with exactly k bitflips, k in [0, fig21MaxK]
}

// fig21ECCPart is the Obs 27 on-die SEC miscorrection experiment.
type fig21ECCPart struct {
	MiscorrectionRate float64
}

// planFig21 shards Fig 21 by (module × pressing interval) — each arm opens
// its own module instance and measures its chunk histogram independently,
// exactly like re-initializing the bench between tests — plus one shard for
// the Obs 27 SEC miscorrection experiment. The cross-arm Obs 25 statistics
// (chunks beyond SECDED, worst chunk) are computed in the merge step.
func planFig21(cfg Config) (*Plan, error) {
	g := fig2Geometry(cfg)
	agg := g.SubarrayBase(1) + g.RowsPerSubarray/2

	var shards []Shard
	for _, id := range []string{"M8", "S0"} {
		id := id
		spec, _ := chipdb.ByID(id)
		for _, iv := range []float64{512, 1024} {
			iv := iv
			shards = append(shards, Shard{
				Label: shardLabel("fig21", "module", id, "iv", fmt.Sprintf("%.0fms", iv)),
				Run: func(context.Context) (any, error) {
					mod, err := spec.OpenWithGeometry(g)
					if err != nil {
						return nil, err
					}
					mod.SetTemperature(65)
					h := bender.NewHost(mod)
					out, err := charz.RunDisturb(h, charz.DisturbConfig{
						Bank: 0, AggRow: agg, Mode: charz.ModeHammer,
						AggPattern: dram.Pat00, VictimPattern: dram.PatFF,
						DurationMs: iv, TAggOnNs: 70_200, TRPNs: 14,
						Subarrays: []int{0, 1, 2},
					}, &charz.Filter{
						ExcludedRows: charz.GuardRows(g, []int{agg}, 4),
					})
					if err != nil {
						return nil, err
					}
					var all []charz.RowFlips
					for _, s := range []int{0, 1, 2} {
						all = append(all, out[s]...)
					}
					return fig21Part{
						Module: id, Mfr: string(spec.Mfr), IntervalMs: iv,
						Hist: charz.ChunkHistogram(all, fig21MaxK),
					}, nil
				},
			})
		}
	}
	shards = append(shards, Shard{
		Label: shardLabel("fig21", "ecc", "sec-miscorrection"),
		Run: func(context.Context) (any, error) {
			// Obs 27: the on-die SEC (136,128) miscorrection experiment —
			// 10K random double-error codewords, exactly as in the paper.
			// The stream key (Seed, 21) matches the pre-shard serial path,
			// so the headline statistic is unchanged.
			sec, err := ecc.NewSEC(128)
			if err != nil {
				return nil, err
			}
			mis := ecc.MiscorrectionExperiment(sec, 10_000, rng.New(rng.Key(cfg.Seed, 21)))
			return fig21ECCPart{MiscorrectionRate: mis.MiscorrectionRate()}, nil
		},
	})

	merge := func(parts []any) (*Result, error) {
		res := &Result{
			ID:      "fig21",
			Title:   "8-byte data chunks by ColumnDisturb bitflip count at 65 °C (cell-explicit tier)",
			Headers: []string{"module", "interval(ms)", "1", "2", "3", "4", "5+", "max flips/chunk"},
		}
		over2 := 0
		maxChunk := 0
		var eccPart fig21ECCPart
		for _, raw := range parts {
			if p, ok := raw.(fig21ECCPart); ok {
				eccPart = p
				continue
			}
			part, ok := raw.(fig21Part)
			if !ok {
				return nil, fmt.Errorf("fig21: part has type %T, want fig21Part", raw)
			}
			hist := part.Hist
			fivePlus := 0
			localMax := 0
			for k := 5; k <= fig21MaxK; k++ {
				fivePlus += hist[k]
			}
			for k := 1; k <= fig21MaxK; k++ {
				if hist[k] > 0 {
					localMax = k
				}
				if k >= 3 {
					over2 += hist[k]
				}
			}
			if localMax > maxChunk {
				maxChunk = localMax
			}
			res.AddRow(fmt.Sprintf("%s (%s)", part.Module, part.Mfr), fmt.Sprintf("%.0f", part.IntervalMs),
				fmt.Sprintf("%d", hist[1]), fmt.Sprintf("%d", hist[2]), fmt.Sprintf("%d", hist[3]),
				fmt.Sprintf("%d", hist[4]), fmt.Sprintf("%d", fivePlus), fmt.Sprintf("%d", localMax))
		}
		res.AddNote("Obs 25: %d chunks with ≥3 bitflips (beyond SECDED correction/detection); worst chunk %d bitflips (paper: up to 15)",
			over2, maxChunk)

		// Obs 26: ECC storage overheads.
		res.AddNote("Obs 26: correcting such chunks with a (7,4) Hamming code costs %.0f%% storage overhead",
			ecc.Overhead(7, 4)*100)
		res.AddNote("Obs 27: (136,128) SEC miscorrects %.1f%% of 10K double-error codewords into triple errors (paper: 88.5%%)",
			eccPart.MiscorrectionRate*100)
		return res, nil
	}

	return &Plan{Shards: shards, Merge: merge}, nil
}
