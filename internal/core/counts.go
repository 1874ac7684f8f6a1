package core

import (
	"columndisturb/internal/faultmodel"
	"columndisturb/internal/sim/rng"
)

// SubarrayConfig describes one statistical subarray experiment.
type SubarrayConfig struct {
	Params     *faultmodel.Params
	TempC      float64
	DurationMs float64
	Rows, Cols int
	Classes    []ColumnClass
}

// SubarrayCounts is the sampled outcome of a subarray experiment.
type SubarrayCounts struct {
	Rows     int // rows sampled
	Total    int
	RowsWith int // blast radius: rows with ≥1 bitflip
}

// FractionOfCells returns the flipped fraction over the tested cells.
func (s SubarrayCounts) FractionOfCells(cols int) float64 {
	if s.Rows == 0 {
		return 0
	}
	return float64(s.Total) / (float64(s.Rows) * float64(cols))
}

// SampleCounts draws per-row bitflip counts for the experiment: each row
// gets shared z-scores for the row-correlated variance components, then
// each column class contributes a binomial draw of its conditional flip
// probability. Only the totals are kept: the flip count (Total) and the
// blast radius (RowsWith, the rows with at least one flip).
func SampleCounts(cfg SubarrayConfig, r *rng.Rand) SubarrayCounts {
	return NewCountsSampler(cfg).Sample(r)
}

// CountsSampler is a SubarrayConfig prepared for repeated SampleCounts
// draws: the per-class rate models and quadrature nodes are built once.
// Repeated-draw callers (per-subarray replication loops) should build one
// sampler per configuration instead of calling SampleCounts n times.
type CountsSampler struct {
	rows      int
	threshold float64
	evals     []classEval
}

// NewCountsSampler prepares the experiment for repeated draws.
func NewCountsSampler(cfg SubarrayConfig) *CountsSampler {
	s := &CountsSampler{rows: cfg.Rows}
	if cfg.DurationMs <= 0 {
		return s
	}
	// The residual (post-row-effect) sigmas are row-invariant, so the
	// quadrature's exp factors are prepared once per class; each row then
	// only shifts the location parameters (see fastpath.go).
	s.evals = prepareClasses(cfg)
	s.threshold = faultmodel.Ln2 / cfg.DurationMs
	return s
}

// Sample draws one outcome; RNG consumption is identical to SampleCounts.
func (s *CountsSampler) Sample(r *rng.Rand) SubarrayCounts {
	out := SubarrayCounts{Rows: s.rows}
	if s.threshold == 0 {
		return out
	}
	for row := 0; row < s.rows; row++ {
		zK, zB := r.Norm(), r.Norm()
		flips := 0
		for i := range s.evals {
			ce := &s.evals[i]
			p := ce.eval.survivalRow(s.threshold, ce.eval.muB+ce.dMuB*zB, ce.eval.muK+ce.dMuK*zK)
			flips += r.Binomial(ce.cells, p)
		}
		out.Total += flips
		if flips > 0 {
			out.RowsWith++
		}
	}
	return out
}

// ExpectedCount returns the deterministic expected bitflip count of the
// experiment (no row-effect sampling): cells × mean flip probability.
func ExpectedCount(cfg SubarrayConfig) float64 {
	if cfg.DurationMs <= 0 {
		return 0
	}
	threshold := faultmodel.Ln2 / cfg.DurationMs
	total := 0.0
	for _, cl := range cfg.Classes {
		m := NewRateModel(cfg.Params, cfg.TempC, cl.Rho)
		total += cl.Frac * float64(cfg.Rows) * float64(cfg.Cols) * m.Survival(threshold)
	}
	return total
}

// SampleTTF draws the subarray's time to first bitflip in ms: the minimum
// over classes of ln2/max-rate within the class population. Returns
// found=false when the sampled time exceeds ceilingMs (the methodology's
// 512 ms search ceiling).
func SampleTTF(cfg SubarrayConfig, ceilingMs float64, r *rng.Rand) (ms float64, found bool) {
	return NewTTFSampler(cfg).Sample(ceilingMs, r)
}
