package charz

import (
	"fmt"

	"columndisturb/internal/bender"
	"columndisturb/internal/dram"
)

// SameSubarrayByRowClone tests whether two logical rows share a subarray by
// attempting the in-DRAM copy of §3.2: after ACT src – PRE – (interrupted
// precharge) – ACT dst, the destination holds the source's content exactly
// when both rows connect to the same sense amplifiers.
//
// The probe overwrites both rows with marker patterns and leaves the
// destination holding the copy result; callers re-initialize rows
// afterwards (the methodology always rewrites rows between tests).
func SameSubarrayByRowClone(h *bender.Host, bank, src, dst int) (bool, error) {
	if src == dst {
		return true, nil
	}
	const marker, anti = dram.PatAA, dram.Pat00
	setup := bender.Program{Name: "rowclone-setup", Instrs: []bender.Instr{
		bender.Write{Bank: bank, Row: src, Pattern: marker},
		bender.Write{Bank: bank, Row: dst, Pattern: anti},
	}}
	if _, err := h.Run(setup); err != nil {
		return false, err
	}
	if _, err := h.Run(bender.RowCloneProgram(bank, src, dst, h.Module().Timing())); err != nil {
		return false, err
	}
	res, err := h.Run(bender.Program{Name: "rowclone-verify", Instrs: []bender.Instr{
		bender.Read{Bank: bank, Row: dst, Tag: "dst"},
	}})
	if err != nil {
		return false, err
	}
	want := make([]uint64, h.Module().Geometry().WordsPerRow())
	dram.FillWords(want, marker)
	got := res.ByTag("dst")[0].Data
	return dram.CountMismatches(got, want) == 0, nil
}

// ScanSubarrayBoundaries reverse engineers the subarray layout of a bank by
// RowClone-testing each adjacent logical row pair, returning the first row
// of every subarray (always including row 0). It assumes subarrays occupy
// contiguous logical ranges, which holds for the group-local scrambling
// real mappings use.
func ScanSubarrayBoundaries(h *bender.Host, bank int) ([]int, error) {
	rows := h.Module().Geometry().RowsPerBank()
	bounds := []int{0}
	for r := 0; r+1 < rows; r++ {
		same, err := SameSubarrayByRowClone(h, bank, r, r+1)
		if err != nil {
			return nil, fmt.Errorf("charz: boundary scan at row %d: %w", r, err)
		}
		if !same {
			bounds = append(bounds, r+1)
		}
	}
	return bounds, nil
}
