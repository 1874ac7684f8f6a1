package core

import (
	"math"
	"testing"

	"columndisturb/internal/faultmodel"
	"columndisturb/internal/sim/rng"
)

// refSurvival is the pre-fastpath evaluation: the literal 8-node quadrature
// with per-node exponentials and no tail cutoffs. The fast path must agree
// with it to float64 working precision.
func refSurvival(m RateModel, x float64) float64 {
	refAt := func(muB float64) float64 {
		lx := math.Log(x)
		if m.KDisabled {
			return rng.PhiC((lx - muB) / m.SigmaB)
		}
		sum := 0.0
		for i := 0; i < 8; i++ {
			z := math.Sqrt2 * ghNodes[i]
			b := math.Exp(muB + m.SigmaB*z)
			var p float64
			if b >= x {
				p = 1
			} else {
				p = rng.PhiC((math.Log(x-b) - m.MuK) / m.SigmaK)
			}
			sum += ghWeights[i] * p
		}
		return clamp01(sum * invSqrtPi)
	}
	if x <= 0 {
		return 1
	}
	if m.VRTProb <= 0 || m.VRTFactor == 1 {
		return refAt(m.MuB)
	}
	weak := refAt(m.MuB + math.Log(m.VRTFactor))
	normal := refAt(m.MuB)
	return clamp01((1-m.VRTProb)*normal + m.VRTProb*weak)
}

// TestSurvivalEvalMatches sweeps realistic parameter ranges and checks the
// prepared evaluator against the reference quadrature. Strict mode agrees
// within 1e-12 absolute — the factored exponentials and tail cutoffs may
// differ in the last ulps, never more. Loose mode agrees within 1e-7:
// fastPhiC's 7.5e-8 plus at most ~6e-9 from the ±5.7 cutoffs, both under a
// normalized quadrature.
func TestSurvivalEvalMatches(t *testing.T) {
	pv := faultmodel.Default()
	p := &pv
	for _, loose := range []bool{false, true} {
		tol := 1e-12
		if loose {
			tol = 1e-7
		}
		for _, tempC := range []float64{45, 65, 85, 95} {
			for _, rho := range []float64{0, 1e-4, 1e-2, 0.3, 1} {
				m := NewRateModel(p, tempC, rho)
				for _, withRow := range []bool{false, true} {
					eval := m
					if withRow {
						eval = m.WithRowEffect(p, 1.7, -0.9)
					}
					e := newSurvivalEval(eval, loose)
					for tMs := 0.25; tMs <= 1e6; tMs *= 1.5 {
						x := faultmodel.Ln2 / tMs
						got := e.survival(x)
						want := refSurvival(eval, x)
						if diff := math.Abs(got - want); diff > tol {
							t.Errorf("loose=%v T=%v rho=%v row=%v t=%vms: eval %.17g ref %.17g (diff %g)",
								loose, tempC, rho, withRow, tMs, got, want, diff)
						}
					}
				}
			}
		}
	}
}

// TestSurvivalRowMatchesWithRowEffect checks the per-row shift path of the
// prepared evaluator (used by SampleCounts) against building the shifted
// model explicitly — same class evaluator, many rows.
func TestSurvivalRowMatchesWithRowEffect(t *testing.T) {
	pv := faultmodel.Default()
	p := &pv
	base := NewRateModel(p, 65, 0.2)
	resid := base.WithRowEffect(p, 0, 0)
	e := newSurvivalEval(resid, false)
	dMuB := base.SigmaB * math.Sqrt(p.BaseRowVarFrac)
	dMuK := base.SigmaK * math.Sqrt(p.KappaRowVarFrac)
	r := rng.New(7)
	for i := 0; i < 200; i++ {
		zK, zB := r.Norm(), r.Norm()
		x := faultmodel.Ln2 / (1 + 2000*r.Float64())
		got := e.survivalRow(x, e.muB+dMuB*zB, e.muK+dMuK*zK)
		want := refSurvival(base.WithRowEffect(p, zK, zB), x)
		if diff := math.Abs(got - want); diff > 1e-12 {
			t.Fatalf("row %d: eval %.17g ref %.17g (diff %g)", i, got, want, diff)
		}
	}
}

// survivalRowNoSkip is survivalRow without the upper-tail skip: every node
// short of b ≥ x takes its log and meets the cutHi test. The skip must
// reproduce it bit for bit.
func survivalRowNoSkip(e *survivalEval, x, muB, muK float64) float64 {
	if x <= 0 {
		return 1
	}
	one := func(eb, muB float64) float64 {
		if e.kDisabled {
			return rng.PhiC((math.Log(x) - muB) * e.invSigmaB)
		}
		sum := 0.0
		for j := 0; j < 8; j++ {
			b := eb * e.eNode[j]
			if b >= x {
				sum += e.suffixW[j]
				break
			}
			a := (math.Log(x-b) - muK) * e.invSigmaK
			if a >= e.cutHi {
				continue
			}
			if a <= e.cutLo {
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
	eb := math.Exp(muB)
	if muB == e.muB {
		eb = e.ebBase
	}
	if e.vrtProb <= 0 || e.vrtFactor == 1 {
		return one(eb, muB)
	}
	normal := one(eb, muB)
	weak := one(eb*e.vrtFactor, muB+e.lnVRT)
	return clamp01((1-e.vrtProb)*normal + e.vrtProb*weak)
}

// randomRateModel draws a model across (and beyond) the calibrated ranges:
// log-space locations in [-25, 5], sigmas in [0.05, 3], VRT on or off.
func randomRateModel(r *rng.Rand, vrt bool) RateModel {
	m := RateModel{
		MuB: -25 + 30*r.Float64(), SigmaB: 0.05 + 2.95*r.Float64(),
		MuK: -25 + 30*r.Float64(), SigmaK: 0.05 + 2.95*r.Float64(),
	}
	if vrt {
		m.VRTProb, m.VRTFactor = 0.3*r.Float64(), 1.5+20*r.Float64()
	}
	return m
}

// TestSkipBitIdentical checks the upper-tail skip changes no bit of
// survivalRow or survival, in both accuracy modes and with VRT on and off:
// on random models and rates, and on rates placed so a node's coupling
// distance x − b sits within ±1e-8 relative of the skip threshold.
func TestSkipBitIdentical(t *testing.T) {
	r := rng.New(11)
	checks := 0
	check := func(e *survivalEval, x, muB, muK float64) {
		t.Helper()
		checks++
		got, want := e.survivalRow(x, muB, muK), survivalRowNoSkip(e, x, muB, muK)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("loose=%v x=%v muB=%v muK=%v: skip %v, no-skip %v", e.loose, x, muB, muK, got, want)
		}
		if muB == e.muB && muK == e.muK {
			if s := e.survival(x); math.Float64bits(s) != math.Float64bits(want) {
				t.Fatalf("loose=%v x=%v: survival %v, no-skip %v", e.loose, x, s, want)
			}
		}
	}
	for i := 0; i < 400; i++ {
		for _, loose := range []bool{false, true} {
			for _, vrt := range []bool{false, true} {
				e := newSurvivalEval(randomRateModel(r, vrt), loose)
				// Random rates, unshifted and row-shifted.
				for k := 0; k < 20; k++ {
					x := math.Exp(-30 + 40*r.Float64())
					check(&e, x, e.muB, e.muK)
					check(&e, x, e.muB+r.Norm(), e.muK+r.Norm())
				}
				// Adversarial rates: node j's distance pinned near dSkip.
				for _, shifted := range []bool{false, true} {
					muB, muK := e.muB, e.muK
					if shifted {
						muB, muK = muB+r.Norm(), muK+r.Norm()
					}
					dSkip := e.skipAbove(muK)
					for j := 0; j < 8; j++ {
						b := math.Exp(muB) * e.eNode[j]
						for _, rel := range []float64{-1e-8, -1e-9, -1e-12, 0, 1e-12, 1e-9, 1e-8, 2e-8*r.Float64() - 1e-8} {
							check(&e, b+dSkip*(1+rel), muB, muK)
						}
					}
				}
			}
		}
	}
	t.Logf("%d bitwise checks", checks)
}

// TestSkipThresholdBelowExactBoundary bisects the float64 boundary of the
// exact test — the smallest d with (ln d − muK)/SigmaK ≥ cutHi as computed —
// and checks skipAbove sits above it (nothing the exact test keeps is
// skipped) by no more than a few times its 1e-9 margin (the skip is not
// vacuous).
func TestSkipThresholdBelowExactBoundary(t *testing.T) {
	r := rng.New(5)
	for i := 0; i < 2000; i++ {
		e := newSurvivalEval(randomRateModel(r, false), i%2 == 0)
		muK := e.muK + 3*r.Norm()
		exactHi := func(d float64) bool { return (math.Log(d)-muK)*e.invSigmaK >= e.cutHi }
		dSkip := e.skipAbove(muK)
		lo, hi := dSkip*(1-1e-6), dSkip
		if exactHi(lo) || !exactHi(hi) {
			t.Fatalf("muK=%v sigmaK=%v: boundary not bracketed by [%v, %v]", muK, e.sigmaK, lo, hi)
		}
		// Positive float64s order like their bit patterns.
		for l, h := math.Float64bits(lo), math.Float64bits(hi); h-l > 1; {
			mid := l + (h-l)/2
			if exactHi(math.Float64frombits(mid)) {
				h = mid
			} else {
				l = mid
			}
			lo, hi = math.Float64frombits(l), math.Float64frombits(h)
		}
		if !(dSkip >= hi) {
			t.Fatalf("muK=%v sigmaK=%v: dSkip %v below the exact boundary %v", muK, e.sigmaK, dSkip, hi)
		}
		if m := dSkip/hi - 1; m > 2e-9 {
			t.Fatalf("muK=%v sigmaK=%v: dSkip sits %g relative above the exact boundary", muK, e.sigmaK, m)
		}
		for _, d := range []float64{math.Nextafter(dSkip, 0), dSkip, math.Nextafter(dSkip, math.Inf(1)), dSkip * (1 + 1e-8)} {
			if d > dSkip && !exactHi(d) {
				t.Fatalf("muK=%v sigmaK=%v: d=%v skipped but the exact test keeps it", muK, e.sigmaK, d)
			}
		}
	}
}

// TestFastPhiCAccuracy pins the Abramowitz–Stegun approximation used on the
// binomial-probability path to its published absolute error bound across the
// loose-cutoff operating range.
func TestFastPhiCAccuracy(t *testing.T) {
	worst := 0.0
	for z := -6.0; z <= 6.0; z += 1.0 / 512 {
		if diff := math.Abs(fastPhiC(z) - rng.PhiC(z)); diff > worst {
			worst = diff
		}
	}
	if worst > 7.5e-8 {
		t.Fatalf("fastPhiC worst-case error %g exceeds 7.5e-8", worst)
	}
}

// TestTTFSamplerMatchesSampleTTF pins the one-shot wrapper contract: the
// prepared sampler and SampleTTF consume the RNG identically and return
// identical values.
func TestTTFSamplerMatchesSampleTTF(t *testing.T) {
	pv := faultmodel.Default()
	p := &pv
	cfg := SubarrayConfig{
		Params: p, TempC: 65, Rows: 512, Cols: 1024,
		Classes: []ColumnClass{{Frac: 0.5, Rho: 0.1}, {Frac: 0.25, Rho: p.RhoIdle()}},
	}
	s := NewTTFSampler(cfg)
	r1, r2 := rng.New(42), rng.New(42)
	for i := 0; i < 50; i++ {
		a, okA := s.Sample(512, r1)
		b, okB := SampleTTF(cfg, 512, r2)
		if a != b || okA != okB {
			t.Fatalf("sample %d: sampler (%v,%v) != SampleTTF (%v,%v)", i, a, okA, b, okB)
		}
	}
}
