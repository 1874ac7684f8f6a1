package core

import (
	"math"

	"columndisturb/internal/faultmodel"
	"columndisturb/internal/sim/rng"
)

// Profile-guided fast path for the survival quadrature. RateModel.Survival
// dominates every statistical sweep (SampleCounts and the TTF bisections
// are >90% of a full registry run), and most of its cost is transcendental:
// eight math.Exp calls per evaluation for the base-rate nodes plus up to
// eight erfc/log pairs for the coupling tail. survivalEval hoists the
// evaluation-invariant parts out of the per-call loop:
//
//   - the quadrature's exp factors split as b_j = e^muB · e^(SigmaB·√2·x_j);
//     the second factor depends only on SigmaB and is precomputed once, so a
//     bisection (fixed model, varying x) pays zero exps per evaluation and a
//     per-row sweep (varying muB) pays one;
//   - the VRT-weak mixture scales the same nodes by VRTFactor instead of
//     re-exponentiating a shifted muB;
//   - PhiC tail cutoffs: the quadrature argument is strictly decreasing in
//     the node index, so once it falls below cutLo the remaining nodes all
//     contribute their full weight (suffix sums, precomputed), and arguments
//     above cutHi contribute nothing;
//   - the upper-tail skip: a node's argument (ln(x − b_j) − muK)/SigmaK is at
//     or above cutHi exactly when x − b_j exceeds e^(muK + cutHi·SigmaK), so
//     nodes beyond that distance (padded by a 1e-9 relative margin, see
//     skipAbove) are dropped without taking their log. In the sweeps two
//     thirds of all nodes land there. The skip only pre-empts the cutHi
//     test, never replaces it: the same terms are summed in the same order,
//     so results are bit-identical to evaluating every node's log.
//
// Two accuracy modes share the loop. Strict mode (quantile inversion, the
// TTF bisections) uses rng.PhiC with cutoffs phiCZero/phiCOne, where
// PhiC(phiCOne) rounds to exactly 1.0 in float64 and PhiC(phiCZero) < 1e-17,
// so it agrees with the literal quadrature to ~1e-15 relative (the factored
// exponentials differ in the last ulp). Loose mode (binomial flip
// probabilities) trades that for speed: fastPhiC, accurate to 7.5e-8
// absolute, and the ±5.7 cutoffs, which drop or saturate terms below
// PhiC(5.7) ≈ 6e-9. Its flip probabilities therefore agree with the literal
// quadrature only to ~1e-7 absolute — far below the binomial sampling
// noise, but not bit-for-bit. TestSurvivalEvalMatches pins both bounds.

const (
	invSqrtPi = 0.5641895835477563
	// phiCZero is the argument above which PhiC is treated as 0
	// (PhiC(8.6) ≈ 4e-18, below float64 resolution of the clamped sum).
	phiCZero = 8.6
	// phiCOne is the argument below which PhiC rounds to exactly 1.0 in
	// float64 (PhiC(-8.3) = 1 − 5e-17).
	phiCOne = -8.3
	// phiCZeroLoose/phiCOneLoose are the relaxed cutoffs for callers that
	// only need absolute accuracy — binomial flip probabilities, where
	// PhiC(5.7) ≈ 6e-9 is orders of magnitude below the sampling noise.
	// Quantile inversion (TTF) keeps the strict cutoffs: it inverts tail
	// probabilities down to ~1e-12, where relative accuracy matters.
	phiCZeroLoose = 5.7
	phiCOneLoose  = -5.7
)

// survivalEval is a RateModel prepared for repeated Survival evaluation.
// The zero value is not usable; build with newSurvivalEval.
type survivalEval struct {
	kDisabled            bool
	muB, muK             float64
	sigmaB, sigmaK       float64
	invSigmaB, invSigmaK float64
	ebBase               float64    // exp(muB)
	eNode                [8]float64 // exp(SigmaB·√2·node_j), ascending
	suffixW              [8]float64 // Σ_{i≥j} ghWeights[i]
	vrtProb, vrtFactor   float64
	lnVRT                float64
	cutHi, cutLo         float64 // PhiC tail cutoffs
	dSkip                float64 // skipAbove(muK): hoisted for the unshifted model
	loose                bool    // absolute-accuracy mode: fastPhiC + loose cutoffs
}

// fastPhiC approximates the complementary normal CDF with absolute error
// below 7.5e-8 (Abramowitz–Stegun 26.2.17): one exp and a degree-5
// polynomial, roughly a third of math.Erfc's cost. Only the loose
// (binomial-probability) evaluation mode uses it — quantile inversion
// needs relative tail accuracy and stays on rng.PhiC.
func fastPhiC(z float64) float64 {
	neg := z < 0
	if neg {
		z = -z
	}
	t := 1 / (1 + 0.2316419*z)
	poly := t * (0.319381530 + t*(-0.356563782+t*(1.781477937+t*(-1.821255978+t*1.330274429))))
	p := 0.3989422804014327 * math.Exp(-0.5*z*z) * poly
	if neg {
		return 1 - p
	}
	return p
}

// newSurvivalEval prepares m in strict mode, or in loose mode for callers
// that only need absolute accuracy (see the file comment).
func newSurvivalEval(m RateModel, loose bool) survivalEval {
	e := survivalEval{
		kDisabled: m.KDisabled,
		muB:       m.MuB, muK: m.MuK,
		sigmaB: m.SigmaB, sigmaK: m.SigmaK,
		vrtProb: m.VRTProb, vrtFactor: m.VRTFactor,
		cutHi: phiCZero, cutLo: phiCOne,
		loose: loose,
	}
	if loose {
		e.cutHi, e.cutLo = phiCZeroLoose, phiCOneLoose
	}
	if m.SigmaB != 0 {
		e.invSigmaB = 1 / m.SigmaB
	}
	if m.SigmaK != 0 {
		e.invSigmaK = 1 / m.SigmaK
	}
	e.ebBase = math.Exp(m.MuB)
	for j := 0; j < 8; j++ {
		e.eNode[j] = math.Exp(m.SigmaB * math.Sqrt2 * ghNodes[j])
	}
	w := 0.0
	for j := 7; j >= 0; j-- {
		w += ghWeights[j]
		e.suffixW[j] = w
	}
	if e.vrtProb > 0 && e.vrtFactor != 1 {
		e.lnVRT = math.Log(e.vrtFactor)
	}
	e.dSkip = e.skipAbove(m.MuK)
	return e
}

// skipAbove returns the coupling distance d = x − b beyond which a node's
// quadrature argument (ln d − muK)/SigmaK is provably ≥ cutHi, so the node
// can be skipped without taking its log. The exact threshold is
// e^(muK + cutHi·SigmaK); the 1e-9 relative margin on it exceeds the
// rounding of both sides by four orders of magnitude (a few ulps of ln d,
// of the exponent and of the exp — ~1e-13 absolute in log space at the
// guard's limits), so a node that the exact test would keep is never
// skipped. Outside the guard (non-positive SigmaK, |muK| or cutHi·SigmaK
// beyond 700, where that bound or exp's normal range fails) nothing is
// skipped.
func (e *survivalEval) skipAbove(muK float64) float64 {
	if !(e.invSigmaK > 0 && math.Abs(muK) < 700 && e.cutHi*e.sigmaK < 700) {
		return math.Inf(1)
	}
	return math.Exp(muK+e.cutHi*e.sigmaK) * (1 + 1e-9)
}

// survival evaluates P(r > x) for the prepared model (no row shifts).
func (e *survivalEval) survival(x float64) float64 {
	return e.survivalRow(x, e.muB, e.muK)
}

// survivalRow evaluates P(r > x) with the model's location parameters
// shifted to (muB, muK) — the per-row conditioning of SampleCounts, where
// the residual sigmas (and therefore eNode) are row-invariant.
func (e *survivalEval) survivalRow(x, muB, muK float64) float64 {
	if x <= 0 {
		return 1
	}
	eb, dSkip := e.ebBase, e.dSkip
	if muB != e.muB {
		eb = math.Exp(muB)
	}
	if muK != e.muK {
		dSkip = e.skipAbove(muK)
	}
	if e.vrtProb <= 0 || e.vrtFactor == 1 {
		return e.survivalOne(x, eb, muB, muK, dSkip)
	}
	// Both components share muK, hence the skip threshold.
	normal := e.survivalOne(x, eb, muB, muK, dSkip)
	weak := e.survivalOne(x, eb*e.vrtFactor, muB+e.lnVRT, muK, dSkip)
	return clamp01((1-e.vrtProb)*normal + e.vrtProb*weak)
}

// survivalOne evaluates one mixture component: eb = exp(muB) is passed so
// the VRT branch can scale rather than re-exponentiate, and dSkip =
// skipAbove(muK) so the components of one row share it.
func (e *survivalEval) survivalOne(x, eb, muB, muK, dSkip float64) float64 {
	if e.kDisabled {
		return rng.PhiC((math.Log(x) - muB) * e.invSigmaB)
	}
	sum := 0.0
	for j := 0; j < 8; j++ {
		b := eb * e.eNode[j]
		if b >= x {
			// Nodes are ascending in b: every remaining node is certain.
			sum += e.suffixW[j]
			break
		}
		d := x - b
		if d > dSkip {
			continue // provably a ≥ cutHi (skipAbove): skip the log
		}
		a := (math.Log(d) - muK) * e.invSigmaK
		if a >= e.cutHi {
			continue // upper tail: below the caller's accuracy floor
		}
		if a <= e.cutLo {
			// The argument decreases with the node index: every remaining
			// node is in the lower tail where PhiC rounds to 1.
			sum += e.suffixW[j]
			break
		}
		if e.loose {
			sum += ghWeights[j] * fastPhiC(a)
		} else {
			sum += ghWeights[j] * rng.PhiC(a)
		}
	}
	return clamp01(sum * invSqrtPi)
}

// sampleMaxRate draws the maximum flip rate over n cells (see
// RateModel.SampleMaxRate).
func (e *survivalEval) sampleMaxRate(n int, r *rng.Rand) float64 {
	if n < 1 {
		panic("core: SampleMaxRate with n < 1")
	}
	u := r.OpenFloat64()
	s := -math.Expm1(math.Log(u) / float64(n))
	if s <= 0 {
		s = math.SmallestNonzeroFloat64
	}
	return e.quantileSurvival(s)
}

// quantileSurvival inverts survival: returns x with Survival(x) = s. The
// prepared nodes make each bisection step exp-free.
func (e *survivalEval) quantileSurvival(s float64) float64 {
	// Bracket in ln-space around both mechanisms' supports.
	lo := e.muB - 12*e.sigmaB
	hi := e.muB + 12*e.sigmaB
	if !e.kDisabled {
		if l := e.muK - 12*e.sigmaK; l < lo {
			lo = l
		}
		if h := e.muK + 12*e.sigmaK; h > hi {
			hi = h
		}
	}
	// Survival is decreasing in x. Expand the bracket defensively.
	for e.survival(math.Exp(lo)) < s && lo > -200 {
		lo -= 4
	}
	for e.survival(math.Exp(hi)) > s && hi < 200 {
		hi += 4
	}
	// Stop once the ln-space bracket is below 1e-9 (x resolved to ~1e-9
	// relative, far inside every consumer's precision); the fixed 60-pass
	// loop this replaces spent half its iterations past float64 utility.
	for i := 0; i < 60 && hi-lo > 1e-9; i++ {
		mid := 0.5 * (lo + hi)
		if e.survival(math.Exp(mid)) > s {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Exp(0.5 * (lo + hi))
}

// classEval is one column class of a subarray experiment prepared for the
// per-row sweep: the residual-variance survival evaluator plus the per-unit
// row-effect shifts of the location parameters.
type classEval struct {
	eval       survivalEval
	dMuB, dMuK float64
	cells      int
}

// prepareClasses builds the per-class evaluators for SampleCounts' row
// loop. Classes that round to zero cells are dropped (matching the
// pre-fastpath skip, which never drew from the RNG for them).
func prepareClasses(cfg SubarrayConfig) []classEval {
	evals := make([]classEval, 0, len(cfg.Classes))
	for _, cl := range cfg.Classes {
		cells := int(math.Round(cl.Frac * float64(cfg.Cols)))
		if cells <= 0 {
			continue
		}
		base := NewRateModel(cfg.Params, cfg.TempC, cl.Rho)
		resid := base.WithRowEffect(cfg.Params, 0, 0)
		ce := classEval{
			// Flip probabilities feed binomial draws: absolute accuracy only.
			eval:  newSurvivalEval(resid, true),
			dMuB:  base.SigmaB * math.Sqrt(cfg.Params.BaseRowVarFrac),
			cells: cells,
		}
		if !base.KDisabled {
			ce.dMuK = base.SigmaK * math.Sqrt(cfg.Params.KappaRowVarFrac)
		}
		evals = append(evals, ce)
	}
	return evals
}

// TTFSampler prepares one subarray configuration for repeated
// time-to-first-bitflip draws: the per-class rate models and quadrature
// nodes are built once, so each sample pays only the order-statistic draw
// and an exp-free bisection. SampleTTF is the one-shot wrapper.
type TTFSampler struct {
	classes []struct {
		eval  survivalEval
		cells int
	}
}

// NewTTFSampler builds the sampler for a subarray configuration.
// (DurationMs is ignored — TTF search supplies its own time axis.)
func NewTTFSampler(cfg SubarrayConfig) *TTFSampler {
	t := &TTFSampler{}
	for _, cl := range cfg.Classes {
		cells := int(math.Round(cl.Frac * float64(cfg.Rows) * float64(cfg.Cols)))
		if cells < 1 {
			continue
		}
		t.classes = append(t.classes, struct {
			eval  survivalEval
			cells int
		}{newSurvivalEval(NewRateModel(cfg.Params, cfg.TempC, cl.Rho), false), cells})
	}
	return t
}

// Sample draws the subarray's time to first bitflip in ms: the minimum
// over classes of ln2/max-rate within the class population. Returns
// found=false when the sampled time exceeds ceilingMs.
func (t *TTFSampler) Sample(ceilingMs float64, r *rng.Rand) (ms float64, found bool) {
	best := math.Inf(1)
	for i := range t.classes {
		c := &t.classes[i]
		if v := faultmodel.Ln2 / c.eval.sampleMaxRate(c.cells, r); v < best {
			best = v
		}
	}
	if ceilingMs > 0 && best > ceilingMs {
		return best, false
	}
	return best, !math.IsInf(best, 1)
}
