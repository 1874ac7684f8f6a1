package faultmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCouplingEndpoints(t *testing.T) {
	p := Default()
	if p.Coupling(0) != 0 {
		t.Fatal("f(0) must be 0")
	}
	if p.Coupling(1) != 1 {
		t.Fatal("f(1) must be 1")
	}
	if p.Coupling(-0.5) != 0 || p.Coupling(1.5) != 1 {
		t.Fatal("Coupling must clamp to [0,1]")
	}
}

func TestCouplingSuperlinear(t *testing.T) {
	p := Default()
	// Retention (Δ=0.5) must see roughly an order of magnitude less
	// coupling than worst-case ColumnDisturb (Δ=1): this is the gap that
	// makes CD bitflips appear at 63.6 ms while retention failures on the
	// same module need ≥512 ms (Obs 3).
	f05 := p.Coupling(0.5)
	if f05 < 0.05 || f05 > 0.2 {
		t.Fatalf("f(0.5) = %v outside the calibrated band", f05)
	}
	if p.Coupling(0.5) >= 0.5 {
		t.Fatal("coupling must be superlinear, not linear")
	}
}

func TestCouplingMonotonic(t *testing.T) {
	p := Default()
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 1))
		b = math.Abs(math.Mod(b, 1))
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return p.Coupling(lo) <= p.Coupling(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRhoIdleIsRetentionOperatingPoint(t *testing.T) {
	p := Default()
	if p.RhoIdle() != p.Coupling(0.5) {
		t.Fatal("RhoIdle must equal f(VDD/2 difference)")
	}
}

func TestRhoHammerOrdering(t *testing.T) {
	p := Default()
	const tAggOn, tRP = 36.0, 14.0
	all0 := p.RhoHammer(tAggOn, tRP, 0)
	all1 := p.RhoHammer(tAggOn, tRP, 1)
	idle := p.RhoIdle()
	// Obs 9/10: all-0 aggressor ≫ retention ≫ all-1 aggressor.
	if !(all0 > idle && idle > all1) {
		t.Fatalf("ordering violated: all0=%v idle=%v all1=%v", all0, all1, idle)
	}
}

func TestRhoHammerPressedApproachesOne(t *testing.T) {
	p := Default()
	rho := p.RhoHammer(70200, 14, 0) // tAggOn = 70.2 µs
	if rho < 0.99 {
		t.Fatalf("pressed all-0 rho = %v, want ≈ 1", rho)
	}
	// Obs 11/20: pressing beats hammering at tRAS.
	if hammer := p.RhoHammer(36, 14, 0); hammer >= rho {
		t.Fatalf("hammering rho %v should be below pressing rho %v", hammer, rho)
	}
}

func TestRhoHammerSaturatesBeyondTRAS(t *testing.T) {
	p := Default()
	// Obs 20: for tAggOn ≫ tRAS the distributions are very similar.
	r1 := p.RhoHammer(7800, 14, 0)
	r2 := p.RhoHammer(70200, 14, 0)
	r3 := p.RhoHammer(1e6, 14, 0)
	if math.Abs(r1-r3)/r3 > 0.01 || math.Abs(r2-r3)/r3 > 0.01 {
		t.Fatalf("rho should saturate: %v %v %v", r1, r2, r3)
	}
}

func TestTwoAggressorHalvesExposure(t *testing.T) {
	p := Default()
	const tAggOn, tRP = 70200.0, 14.0
	single := p.RhoHammer(tAggOn, tRP, 0)
	double := p.RhoTwoAggressor(tAggOn, tRP, 0, 1)
	ratio := single / double
	// Obs 21: single-aggressor induces the first bitflip 1.83–2.16× faster.
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("single/two-aggressor exposure ratio %v outside [1.8, 2.2]", ratio)
	}
}

func TestRhoDutyEndpointsAndMonotonicity(t *testing.T) {
	p := Default()
	if got := p.RhoDuty(0, 0); math.Abs(got-p.RhoIdle()) > 1e-15 {
		t.Fatalf("duty 0 should be retention point: %v", got)
	}
	if got := p.RhoDuty(1, 0); got != 1 {
		t.Fatalf("duty 1 at GND should be full coupling: %v", got)
	}
	// Obs 12: lower average column voltage ⇒ more vulnerable. Sweeping
	// duty at vLow=0 decreases AVG(V_COL) and must increase rho.
	prev := -1.0
	for frac := 0.0; frac <= 1.0001; frac += 0.05 {
		rho := p.RhoDuty(frac, 0)
		if rho < prev {
			t.Fatalf("rho not monotone in GND duty at %v", frac)
		}
		prev = rho
	}
	// Driving to VDD is *less* disturbing than precharge.
	if p.RhoDuty(1, 1) >= p.RhoIdle() {
		t.Fatal("column at VDD should beat precharged column")
	}
}

func TestAvgColumnVoltagePaperExample(t *testing.T) {
	p := Default()
	// §4.6 worked example: DP=GND, tAggOn=36ns, tRP=14ns ⇒ 0.14·VDD.
	got := p.AvgColumnVoltage(36, 14, 0)
	if math.Abs(got-0.14) > 1e-12 {
		t.Fatalf("AVG(V_COL) = %v, want 0.14", got)
	}
}

func TestDecayIntegralAndFlips(t *testing.T) {
	p := Default()
	// A cell with rate exactly ln2/t flips at t.
	lambda := Ln2 / 100.0
	d := p.DecayIntegral(lambda, 0, 100, 0, p.RefTempC)
	if !Flips(d) {
		t.Fatal("cell at threshold rate must flip at its flip time")
	}
	if Flips(p.DecayIntegral(lambda, 0, 99, 0, p.RefTempC)) {
		t.Fatal("cell must not flip before its flip time")
	}
}

func TestTimeToFlipTemperature(t *testing.T) {
	p := Default()
	t85 := p.TimeToFlipMs(1e-4, 1e-3, 1, 85)
	t95 := p.TimeToFlipMs(1e-4, 1e-3, 1, 95)
	t45 := p.TimeToFlipMs(1e-4, 1e-3, 1, 45)
	if !(t95 < t85 && t85 < t45) {
		t.Fatalf("flip time must shrink with temperature: %v %v %v", t45, t85, t95)
	}
}

func TestTimeToFlipInfiniteForZeroRate(t *testing.T) {
	p := Default()
	if !math.IsInf(p.TimeToFlipMs(0, 0, 1, 85), 1) {
		t.Fatal("zero-rate cell must never flip")
	}
}

func TestCDMoreTempSensitiveThanRetention(t *testing.T) {
	p := Default()
	// Obs 17: raising temperature boosts the κ mechanism more than base
	// retention.
	cdBoost := p.KappaTempFactor(95) / p.KappaTempFactor(85)
	retBoost := p.BaseTempFactor(95) / p.BaseTempFactor(85)
	if cdBoost <= retBoost {
		t.Fatalf("κ temperature slope must exceed base slope: %v vs %v", cdBoost, retBoost)
	}
}

func TestPressEquivalentActs(t *testing.T) {
	p := Default()
	if got := p.PressEquivalentActs(100, p.PressRefNs); got != 100 {
		t.Fatalf("at tRAS, equivalence must be identity: %v", got)
	}
	if got := p.PressEquivalentActs(100, p.PressRefNs/2); got != 100 {
		t.Fatalf("below tRAS no discount: %v", got)
	}
	long := p.PressEquivalentActs(100, 70200)
	if long <= 100 {
		t.Fatal("pressing must amplify per-activation damage")
	}
	// Sublinear: doubling tAggOn must less than double damage.
	if p.PressEquivalentActs(100, 2*70200) >= 2*long {
		t.Fatal("press equivalence must be sublinear in tAggOn")
	}
	if p.PressEquivalentActs(0, 70200) != 0 {
		t.Fatal("zero activations produce zero damage")
	}
}

func TestRetentionVsCDFirstFlipGap(t *testing.T) {
	// End-to-end check of the law behind Obs 3: with the same extreme
	// cell, the retention-to-CD flip time ratio equals 1/ρ_ret when κ
	// dominates. That ratio should be large enough to put CD inside a
	// refresh window while retention needs half a second.
	p := Default()
	kappa := Ln2 / 63.6 // extreme cell calibrated to CD flip at 63.6 ms
	cd := p.TimeToFlipMs(0, kappa, 1, p.RefTempC)
	ret := p.TimeToFlipMs(0, kappa, p.RhoIdle(), p.RefTempC)
	if math.Abs(cd-63.6) > 1e-9 {
		t.Fatalf("cd flip time %v", cd)
	}
	if ret < 400 || ret > 900 {
		t.Fatalf("retention flip time %v ms should land near the paper's ≥512 ms", ret)
	}
}
