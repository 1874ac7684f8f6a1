package core

import (
	"math"
	"testing"

	"columndisturb/internal/bender"
	"columndisturb/internal/charz"
	"columndisturb/internal/dram"
	"columndisturb/internal/sim/rng"
)

func TestSampleCountsMatchesExpectedCount(t *testing.T) {
	p := calibrated(5, 50, dram.SmallGeometry().TotalCells())
	cfg := SubarrayConfig{
		Params: p, TempC: 85, DurationMs: 30,
		Rows: 256, Cols: 512,
		Classes: AggressorSubarrayClasses(p, setup(dram.Pat00, dram.PatFF)),
	}
	r := rng.New(3)
	const reps = 30
	var sum float64
	for i := 0; i < reps; i++ {
		sum += float64(SampleCounts(cfg, r).Total)
	}
	mc := sum / reps
	want := ExpectedCount(cfg)
	if want < 50 {
		t.Fatalf("test setup too weak: expected count %v", want)
	}
	if mc < want*0.75 || mc > want*1.3 {
		t.Fatalf("sampled mean %v vs expected %v", mc, want)
	}
}

func TestSampleCountsZeroDuration(t *testing.T) {
	p := calibrated(5, 50, 1<<12)
	cfg := SubarrayConfig{Params: p, TempC: 85, DurationMs: 0, Rows: 8, Cols: 64,
		Classes: RetentionClasses(p, dram.PatFF)}
	got := SampleCounts(cfg, rng.New(1))
	if got.Total != 0 || got.RowsWith != 0 {
		t.Fatal("zero duration must produce zero flips")
	}
}

func TestBlastRadiusGrowsWithInterval(t *testing.T) {
	// Obs 14: more rows experience CD bitflips as the interval grows.
	p := calibrated(64, 512, 1<<23)
	r := rng.New(9)
	radius := func(ms float64) float64 {
		cfg := SubarrayConfig{
			Params: p, TempC: 85, DurationMs: ms,
			Rows: 1024, Cols: 1024,
			Classes: AggressorSubarrayClasses(p, setup(dram.Pat00, dram.PatFF)),
		}
		sum := 0.0
		for i := 0; i < 5; i++ {
			sum += float64(SampleCounts(cfg, r).RowsWith)
		}
		return sum / 5
	}
	r256, r512, r1024 := radius(256), radius(512), radius(1024)
	if !(r256 <= r512 && r512 <= r1024) {
		t.Fatalf("blast radius must grow: %v %v %v", r256, r512, r1024)
	}
	if r1024 == 0 {
		t.Fatal("expected some blast radius at 1024 ms")
	}
}

func TestCDBeatsRetentionCounts(t *testing.T) {
	// Obs 6/8: for a given interval ColumnDisturb induces many more
	// bitflips than retention.
	p := calibrated(64, 512, 1<<23)
	mk := func(classes []ColumnClass) float64 {
		return ExpectedCount(SubarrayConfig{
			Params: p, TempC: 85, DurationMs: 2000,
			Rows: 1024, Cols: 1024, Classes: classes,
		})
	}
	cd := mk(AggressorSubarrayClasses(p, setup(dram.Pat00, dram.PatFF)))
	ret := mk(RetentionClasses(p, dram.PatFF))
	if cd <= 2*ret {
		t.Fatalf("CD (%v) should far exceed retention (%v)", cd, ret)
	}
}

func TestNeighborCountsBetweenCDAndRetention(t *testing.T) {
	// Obs 5: neighbours (half shared columns) see fewer flips than the
	// aggressor subarray but more than pure retention.
	p := calibrated(64, 512, 1<<23)
	mk := func(classes []ColumnClass) float64 {
		return ExpectedCount(SubarrayConfig{
			Params: p, TempC: 85, DurationMs: 2000,
			Rows: 1024, Cols: 1024, Classes: classes,
		})
	}
	aggc := mk(AggressorSubarrayClasses(p, setup(dram.Pat00, dram.PatFF)))
	nbr := mk(UpperNeighborClasses(p, setup(dram.Pat00, dram.PatFF)))
	ret := mk(RetentionClasses(p, dram.PatFF))
	if !(aggc > nbr && nbr > ret) {
		t.Fatalf("ordering violated: agg=%v nbr=%v ret=%v", aggc, nbr, ret)
	}
}

func TestDataPatternCountScaling(t *testing.T) {
	// Obs 23: more logic-0 columns ⇒ more bitflips; 0x00 ≈ 2× 0xAA with
	// negated victims.
	p := calibrated(64, 512, 1<<23)
	mk := func(agg dram.DataPattern) float64 {
		return ExpectedCount(SubarrayConfig{
			Params: p, TempC: 85, DurationMs: 512,
			Rows: 1024, Cols: 1024,
			Classes: AggressorSubarrayClasses(p, setup(agg, agg.Negate())),
		})
	}
	c00, c11, cAA := mk(dram.Pat00), mk(dram.Pat11), mk(dram.PatAA)
	if !(c00 > c11 && c11 > cAA) {
		t.Fatalf("pattern ordering violated: %v %v %v", c00, c11, cAA)
	}
	if ratio := c00 / cAA; ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("0x00/0xAA ratio %v, want ≈ 2 (Obs 23)", ratio)
	}
}

func TestSampleTTFCeiling(t *testing.T) {
	p := calibrated(1e6, 1e7, 1<<23) // essentially invulnerable
	cfg := SubarrayConfig{
		Params: p, TempC: 85, Rows: 1024, Cols: 1024,
		Classes: AggressorSubarrayClasses(p, setup(dram.Pat00, dram.PatFF)),
	}
	_, found := SampleTTF(cfg, 512, rng.New(5))
	if found {
		t.Fatal("invulnerable module must exceed the 512 ms ceiling")
	}
}

func TestSampleTTFSingleVsTwoAggressor(t *testing.T) {
	// Obs 21 at the TTF level: single-aggressor is ≈2× faster.
	p := calibrated(64, 512, 1<<23)
	single := NewRateModel(p, 85, AggressorSubarrayClasses(p, setup(dram.Pat00, dram.PatFF))[0].Rho)
	s2 := setup(dram.Pat00, dram.PatFF)
	s2.TwoAggressor = true
	s2.Agg2Pattern = dram.PatFF
	double := NewRateModel(p, 85, AggressorSubarrayClasses(p, s2)[0].Rho)
	const n = 1 << 20
	r1, r2 := single.ExpectedTTFms(n), double.ExpectedTTFms(n)
	ratio := r2 / r1
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("two/single TTF ratio %v, want ≈ 2", ratio)
	}
}

func TestTTFDataPatternInsensitive(t *testing.T) {
	// Obs 22: the aggressor data pattern barely moves the TTF (the weakest
	// cell just needs one GND column; only the population size changes).
	p := calibrated(64, 512, 1<<23)
	ttf := func(agg dram.DataPattern) float64 {
		cls := AggressorSubarrayClasses(p, setup(agg, agg.Negate()))
		cfg := SubarrayConfig{Params: p, TempC: 85, Rows: 1024, Cols: 1024, Classes: cls}
		sum := 0.0
		r := rng.New(11)
		for i := 0; i < 50; i++ {
			ms, found := SampleTTF(cfg, 0, r)
			if !found {
				t.Fatal("expected vulnerability")
			}
			sum += ms
		}
		return sum / 50
	}
	base := ttf(dram.Pat00)
	for _, agg := range []dram.DataPattern{dram.Pat11, dram.Pat33, dram.Pat77, dram.PatAA} {
		ratio := ttf(agg) / base
		if ratio < 1/1.5 || ratio > 1.5 {
			t.Fatalf("pattern %#02x TTF ratio %v exceeds the small-variation bound", byte(agg), ratio)
		}
	}
}

// TestCrossValidationAgainstCellTier is the tier-agreement check promised
// in DESIGN.md: the statistical tier's expected counts must match a full
// cell-explicit methodology run on the same parameters.
func TestCrossValidationAgainstCellTier(t *testing.T) {
	g := dram.SmallGeometry()
	p := calibrated(5, 50, g.TotalCells())

	// Cell-explicit run: press the middle row of subarray 1 for 30 ms.
	d, err := dram.NewDevice(g, p, dram.DDR4Timing(), 77)
	if err != nil {
		t.Fatal(err)
	}
	h := bender.NewHost(dram.NewModule(d, nil))
	agg := g.SubarrayBase(1) + g.RowsPerSubarray/2
	guard := charz.GuardRows(g, []int{agg}, 4)
	out, err := charz.RunDisturb(h, charz.DisturbConfig{
		Bank: 0, AggRow: agg, Mode: charz.ModeHammer,
		AggPattern: dram.Pat00, VictimPattern: dram.PatFF,
		DurationMs: 30, TAggOnNs: 70200, TRPNs: 14,
		Subarrays: []int{0, 1, 2},
	}, &charz.Filter{ExcludedRows: guard})
	if err != nil {
		t.Fatal(err)
	}
	cellAgg := charz.Aggregate(out[1]).Flips
	cellNbr := charz.Aggregate(out[0]).Flips + charz.Aggregate(out[2]).Flips

	// Statistical tier with matching populations.
	su := setup(dram.Pat00, dram.PatFF)
	aggRows := g.RowsPerSubarray - guard.Len()
	expAgg := ExpectedCount(SubarrayConfig{
		Params: p, TempC: 85, DurationMs: 30,
		Rows: aggRows, Cols: g.Cols,
		Classes: AggressorSubarrayClasses(p, su),
	})
	expNbr := ExpectedCount(SubarrayConfig{
		Params: p, TempC: 85, DurationMs: 30,
		Rows: g.RowsPerSubarray, Cols: g.Cols,
		Classes: UpperNeighborClasses(p, su),
	}) + ExpectedCount(SubarrayConfig{
		Params: p, TempC: 85, DurationMs: 30,
		Rows: g.RowsPerSubarray, Cols: g.Cols,
		Classes: LowerNeighborClasses(p, su),
	})

	check := func(name string, cell int, exp float64) {
		if exp < 20 {
			t.Fatalf("%s: expected count %v too small for a meaningful comparison", name, exp)
		}
		// Allow binomial noise plus quadrature error.
		tol := 4*math.Sqrt(exp) + 0.15*exp
		if math.Abs(float64(cell)-exp) > tol {
			t.Errorf("%s: cell tier %d vs statistical %v (tol %v)", name, cell, exp, tol)
		}
	}
	check("aggressor subarray", cellAgg, expAgg)
	check("neighbour subarrays", cellNbr, expNbr)
}
