package bender

import (
	"testing"

	"columndisturb/internal/dram"
	"columndisturb/internal/faultmodel"
)

func testModule(t *testing.T, seed uint64) *dram.Module {
	t.Helper()
	g := dram.SmallGeometry()
	p := faultmodel.Default()
	p.VRTProb = 0
	p.Calibrate(faultmodel.CalibrationTarget{
		TimeToFirstCDms:  5,
		TimeToFirstRETms: 50,
		PopulationCells:  g.TotalCells(),
	})
	d, err := dram.NewDevice(g, &p, dram.DDR4Timing(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return dram.NewModule(d, nil)
}

func TestWriteReadProgram(t *testing.T) {
	h := NewHost(testModule(t, 1))
	prog := Program{Name: "wr", Instrs: []Instr{
		Write{0, 3, dram.PatAA},
		Read{0, 3, "x"},
	}}
	res, err := h.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	recs := res.ByTag("x")
	if len(recs) != 1 {
		t.Fatalf("want 1 read record, got %d", len(recs))
	}
	want := make([]uint64, h.Module().Geometry().WordsPerRow())
	dram.FillWords(want, dram.PatAA)
	if dram.CountMismatches(recs[0].Data, want) != 0 {
		t.Fatal("read data mismatch")
	}
	if res.ByTag("nope") != nil {
		t.Fatal("unknown tag should return nothing")
	}
}

func TestLoopFastForwardMatchesLiteral(t *testing.T) {
	// The interpreter's analytic fast-forward of the canonical hammer body
	// must produce bit-identical results to literal execution.
	run := func(literal bool) []uint64 {
		h := NewHost(testModule(t, 2))
		g := h.Module().Geometry()
		var init []Instr
		for r := 0; r < g.RowsPerBank(); r++ {
			init = append(init, Write{0, r, dram.PatFF})
		}
		agg := g.SubarrayBase(1) + 7
		init = append(init, Write{0, agg, dram.Pat00})
		if _, err := h.Run(Program{Name: "init", Instrs: init}); err != nil {
			t.Fatal(err)
		}
		const n = 150
		body := []Instr{Act{0, agg}, Wait{70200}, Pre{0}, Wait{14}}
		var hammer Program
		if literal {
			// Unrolled: the matcher must not see a Loop at all.
			var ins []Instr
			for i := 0; i < n; i++ {
				ins = append(ins, body...)
			}
			hammer = Program{Name: "literal", Instrs: ins}
		} else {
			hammer = Program{Name: "fast", Instrs: []Instr{Loop{Count: n, Body: body}}}
		}
		res, err := h.Run(hammer)
		if err != nil {
			t.Fatal(err)
		}
		if res.ActsIssued != n {
			t.Fatalf("acts issued %d, want %d", res.ActsIssued, n)
		}
		read, err := h.Run(ReadRowsProgram(0, 0, g.RowsPerBank()-1, "out"))
		if err != nil {
			t.Fatal(err)
		}
		var all []uint64
		for _, rec := range read.ByTag("out") {
			all = append(all, rec.Data...)
		}
		return all
	}
	fast, lit := run(false), run(true)
	if len(fast) != len(lit) {
		t.Fatal("length mismatch")
	}
	for i := range fast {
		if fast[i] != lit[i] {
			t.Fatalf("fast-forward diverges from literal execution at word %d", i)
		}
	}
}

func TestHammerProgramBuilder(t *testing.T) {
	h := NewHost(testModule(t, 3))
	g := h.Module().Geometry()
	agg := g.SubarrayBase(1) + 4
	res, err := h.Run(HammerProgram(0, agg, 1000, 36, 14))
	if err != nil {
		t.Fatal(err)
	}
	if res.ActsIssued != 1000 {
		t.Fatalf("acts %d", res.ActsIssued)
	}
	wantNs := 1000 * 50.0
	if res.ElapsedNs != wantNs {
		t.Fatalf("elapsed %v, want %v", res.ElapsedNs, wantNs)
	}
}

func TestTwoAggressorProgramBuilder(t *testing.T) {
	h := NewHost(testModule(t, 4))
	g := h.Module().Geometry()
	base := g.SubarrayBase(1)
	res, err := h.Run(TwoAggressorProgram(0, base+3, base+8, 500, 36, 14))
	if err != nil {
		t.Fatal(err)
	}
	if res.ActsIssued != 1000 {
		t.Fatalf("two-aggressor should count both rows' acts: %d", res.ActsIssued)
	}
}

func TestRetentionProgram(t *testing.T) {
	h := NewHost(testModule(t, 5))
	before := h.Module().NowNs()
	if _, err := h.Run(RetentionProgram(64)); err != nil {
		t.Fatal(err)
	}
	if got := h.Module().NowNs() - before; got != 64e6 {
		t.Fatalf("retention wait advanced %v ns, want 64e6", got)
	}
}

func TestRowCloneProgram(t *testing.T) {
	h := NewHost(testModule(t, 6))
	g := h.Module().Geometry()
	src, dst := g.SubarrayBase(1)+2, g.SubarrayBase(1)+9
	if _, err := h.Run(Program{Instrs: []Instr{
		Write{0, src, dram.PatAA}, Write{0, dst, dram.Pat00},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(RowCloneProgram(0, src, dst, h.Module().Timing())); err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(Program{Instrs: []Instr{Read{0, dst, "d"}}})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, g.WordsPerRow())
	dram.FillWords(want, dram.PatAA)
	if dram.CountMismatches(res.ByTag("d")[0].Data, want) != 0 {
		t.Fatal("RowClone program did not copy within subarray")
	}
}

func TestLiteralLoopLimit(t *testing.T) {
	h := NewHost(testModule(t, 7))
	// A non-canonical body (extra read) cannot be fast-forwarded. One
	// iteration past the bound is rejected before anything executes, so
	// the check costs nothing.
	body := []Instr{Act{0, 1}, Wait{36}, Pre{0}, Wait{14}, Read{0, 5, "r"}}
	prog := Program{Instrs: []Instr{
		Loop{Count: DefaultMaxLiteralIterations/len(body) + 1, Body: body},
	}}
	before := h.Module().NowNs()
	if _, err := h.Run(prog); err == nil {
		t.Fatal("oversized literal loop must be rejected")
	}
	if h.Module().NowNs() != before {
		t.Fatal("the rejected loop executed before the limit check")
	}
	// Canonical bodies are exempt.
	if _, err := h.Run(HammerProgram(0, 1, 100000, 36, 14)); err != nil {
		t.Fatalf("fast-forwarded loop should not hit the literal limit: %v", err)
	}
}

func TestSetTempInstruction(t *testing.T) {
	h := NewHost(testModule(t, 8))
	if _, err := h.Run(Program{Instrs: []Instr{SetTemp{45}}}); err != nil {
		t.Fatal(err)
	}
	if h.Module().Temperature() != 45 {
		t.Fatal("SetTemp not applied")
	}
	h.SetTemperature(95)
	if h.Module().Temperature() != 95 {
		t.Fatal("host SetTemperature not applied")
	}
}

func TestProgramErrorsPropagate(t *testing.T) {
	h := NewHost(testModule(t, 9))
	if _, err := h.Run(Program{Name: "bad", Instrs: []Instr{Pre{0}}}); err == nil {
		t.Fatal("PRE on closed bank should error")
	}
	if _, err := h.Run(Program{Instrs: []Instr{Wait{-5}}}); err == nil {
		t.Fatal("negative wait should error")
	}
	if _, err := h.Run(Program{Instrs: []Instr{Act{0, 1 << 30}}}); err == nil {
		t.Fatal("out-of-range row should error")
	}
}

func TestLogicalAddressingThroughHost(t *testing.T) {
	// With a scrambled mapping, hammering logical row L must physically
	// hammer Physical(L): its physical neighbours get the RowHammer
	// damage.
	g := dram.SmallGeometry()
	p := faultmodel.Default()
	p.VRTProb = 0
	p.MuKappa, p.MuBase = -40, -40 // isolate RowHammer
	p.MuHC, p.SigmaHC = 7, 0.5     // threshold ≈ 1100 acts
	d, err := dram.NewDevice(g, &p, dram.DDR4Timing(), 10)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := dram.NewGroupScramble(2, []int{2, 3, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(dram.NewModule(d, gs))
	for r := 0; r < g.RowsPerBank(); r++ {
		if err := d.WriteRowPattern(0, r, dram.PatFF); err != nil {
			t.Fatal(err)
		}
	}
	logical := g.SubarrayBase(1) + 4 // physical row = base+6
	phys := gs.Physical(logical)
	if _, err := h.Run(HammerProgram(0, logical, 100000, 36, 14)); err != nil {
		t.Fatal(err)
	}
	ones := make([]uint64, g.WordsPerRow())
	dram.FillWords(ones, dram.PatFF)
	for _, r := range []int{phys - 1, phys + 1} {
		got, err := d.ReadRow(0, r)
		if err != nil {
			t.Fatal(err)
		}
		if dram.CountMismatches(got, ones) == 0 {
			t.Fatalf("physical neighbour %d of hammered row should have flips", r)
		}
	}
}
