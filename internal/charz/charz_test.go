package charz

import (
	"math"
	"testing"

	"columndisturb/internal/bender"
	"columndisturb/internal/dram"
	"columndisturb/internal/faultmodel"
)

// newHost builds a small module under test. cdMs/retMs pick the
// vulnerability; hcMedian sets the RowHammer threshold median (0 keeps the
// default, effectively disabling RowHammer at test scales).
func newHost(t *testing.T, seed uint64, cdMs, retMs, hcMedian float64, m dram.RowMapping) *bender.Host {
	t.Helper()
	g := dram.SmallGeometry()
	p := faultmodel.Default()
	p.VRTProb = 0
	p.Calibrate(faultmodel.CalibrationTarget{
		TimeToFirstCDms:  cdMs,
		TimeToFirstRETms: retMs,
		PopulationCells:  g.TotalCells(),
	})
	if hcMedian > 0 {
		p.MuHC, p.SigmaHC = math.Log(hcMedian), 0.5
	}
	d, err := dram.NewDevice(g, &p, dram.DDR4Timing(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return bender.NewHost(dram.NewModule(d, m))
}

func TestSameSubarrayByRowClone(t *testing.T) {
	h := newHost(t, 1, 5, 50, 0, nil)
	g := h.Module().Geometry()
	same, err := SameSubarrayByRowClone(h, 0, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("rows 3 and 17 share subarray 0")
	}
	diff, err := SameSubarrayByRowClone(h, 0, 3, g.SubarrayBase(1)+3)
	if err != nil {
		t.Fatal(err)
	}
	if diff {
		t.Fatal("rows in different subarrays must not clone")
	}
}

func TestScanSubarrayBoundaries(t *testing.T) {
	h := newHost(t, 2, 5, 50, 0, nil)
	g := h.Module().Geometry()
	bounds, err := ScanSubarrayBoundaries(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, g.RowsPerSubarray, 2 * g.RowsPerSubarray}
	if len(bounds) != len(want) {
		t.Fatalf("boundaries %v, want %v", bounds, want)
	}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("boundaries %v, want %v", bounds, want)
		}
	}
}

func TestTimeToFirstBitflip(t *testing.T) {
	h := newHost(t, 9, 5, 50, 0, nil)
	g := h.Module().Geometry()
	cfg := DefaultTTFConfig(h.Module().Timing())
	cfg.Repeats = 2
	agg := g.SubarrayBase(1) + g.RowsPerSubarray/2
	res, err := TimeToFirstBitflip(h, 0, agg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("vulnerable module reported not vulnerable")
	}
	// Calibration target is ~5 ms for the module's weakest cell; this
	// subarray's weakest cell is somewhat stronger, and the 1% bisection
	// lands near it. Accept a loose band.
	if res.TimeMs < 1 || res.TimeMs > 60 {
		t.Fatalf("TTF %.2f ms implausible for a 5 ms-calibrated module", res.TimeMs)
	}
	if res.HammerCount <= 0 || res.Probes == 0 {
		t.Fatalf("bad search bookkeeping: %+v", res)
	}
}

func TestTimeToFirstBitflipNotFound(t *testing.T) {
	h := newHost(t, 10, 1e7, 1e7, 0, nil) // essentially invulnerable
	g := h.Module().Geometry()
	cfg := DefaultTTFConfig(h.Module().Timing())
	cfg.Repeats = 1
	cfg.MaxTimeMs = 64
	res, err := TimeToFirstBitflip(h, 0, g.SubarrayBase(1)+5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("invulnerable module reported vulnerable")
	}
}

func TestRunDisturbCDvsRetention(t *testing.T) {
	g := dram.SmallGeometry()
	agg := g.SubarrayBase(1) + 16
	run := func(mode DisturbMode) map[int][]RowFlips {
		h := newHost(t, 11, 5, 50, 0, nil)
		f := &Filter{ExcludedRows: GuardRows(g, []int{agg}, 4)}
		out, err := RunDisturb(h, DisturbConfig{
			Bank: 0, AggRow: agg, Mode: mode,
			AggPattern: dram.Pat00, VictimPattern: dram.PatFF,
			DurationMs: 100, TAggOnNs: 70200, TRPNs: 14,
			Subarrays: []int{0, 1, 2},
		}, f)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cd := run(ModeHammer)
	ret := run(ModeIdle)
	var cdTot, retTot Totals
	for s := 0; s <= 2; s++ {
		cdAgg := Aggregate(cd[s])
		retAgg := Aggregate(ret[s])
		cdTot.Flips += cdAgg.Flips
		retTot.Flips += retAgg.Flips
	}
	if cdTot.Flips <= retTot.Flips {
		t.Fatalf("CD (%d flips) must exceed retention (%d) at 100 ms", cdTot.Flips, retTot.Flips)
	}
	// Obs 5: aggressor subarray sees more flips than each neighbour.
	aggFlips := Aggregate(cd[1]).Flips
	if aggFlips <= Aggregate(cd[0]).Flips || aggFlips <= Aggregate(cd[2]).Flips {
		t.Fatalf("aggressor subarray should dominate: %d vs %d/%d",
			aggFlips, Aggregate(cd[0]).Flips, Aggregate(cd[2]).Flips)
	}
}

func TestRunDisturbTwoAggressor(t *testing.T) {
	g := dram.SmallGeometry()
	base := g.SubarrayBase(1)
	h := newHost(t, 12, 5, 50, 0, nil)
	f := &Filter{ExcludedRows: GuardRows(g, []int{base + 10, base + 20}, 4)}
	out, err := RunDisturb(h, DisturbConfig{
		Bank: 0, AggRow: base + 10, AggRow2: base + 20, Mode: ModeTwoAggressor,
		AggPattern: dram.Pat00, Agg2Pattern: dram.PatFF, VictimPattern: dram.PatFF,
		DurationMs: 100, TAggOnNs: 70200, TRPNs: 14,
		Subarrays: []int{1},
	}, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(out[1]) == 0 {
		t.Fatal("no rows read")
	}
}

func TestRunDisturbRejectsTooShortDuration(t *testing.T) {
	h := newHost(t, 13, 5, 50, 0, nil)
	_, err := RunDisturb(h, DisturbConfig{
		Bank: 0, AggRow: 5, Mode: ModeHammer,
		AggPattern: dram.Pat00, VictimPattern: dram.PatFF,
		DurationMs: 1e-6, TAggOnNs: 70200, TRPNs: 14,
	}, nil)
	if err == nil {
		t.Fatal("sub-cycle duration must be rejected")
	}
}
