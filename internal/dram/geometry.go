// Package dram models a DRAM module at device level: banks of subarrays in
// the open-bitline architecture, per-cell data storage, the DDR command
// state machine (ACT/PRE/RD/WR/REF), RowClone timing-violation semantics,
// and in-DRAM logical-to-physical row address mapping.
//
// The model is *fault-aware*: every read evaluates the accumulated
// disturbance of each cell (retention, ColumnDisturb through the bitline
// voltage waveform, RowHammer/RowPress on immediate neighbours) using the
// parametric law in internal/faultmodel, commits any bitflips to the array
// (as the sense amplifiers would), and returns the possibly-corrupted data.
package dram

import "fmt"

// Geometry describes the physical organization of one DRAM module (one
// rank's worth of banks, with chips striped across columns).
type Geometry struct {
	Banks            int // banks per module
	SubarraysPerBank int // physically consecutive subarrays in a bank
	RowsPerSubarray  int // rows per subarray (512–1024 in tested chips)
	Cols             int // physical columns (bitlines) per subarray row
	Chips            int // chips in the rank; columns stripe across chips
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	switch {
	case g.Banks < 1:
		return fmt.Errorf("dram: need at least one bank, got %d", g.Banks)
	case g.SubarraysPerBank < 1:
		return fmt.Errorf("dram: need at least one subarray, got %d", g.SubarraysPerBank)
	case g.RowsPerSubarray < 2:
		return fmt.Errorf("dram: need at least two rows per subarray, got %d", g.RowsPerSubarray)
	case g.Cols < 64 || g.Cols%64 != 0:
		return fmt.Errorf("dram: columns must be a positive multiple of 64, got %d", g.Cols)
	case g.Chips < 1 || g.Cols%g.Chips != 0:
		return fmt.Errorf("dram: chips (%d) must divide columns (%d)", g.Chips, g.Cols)
	}
	return nil
}

// RowsPerBank returns the number of rows in one bank.
func (g Geometry) RowsPerBank() int { return g.SubarraysPerBank * g.RowsPerSubarray }

// TotalRows returns the number of rows in the module.
func (g Geometry) TotalRows() int { return g.Banks * g.RowsPerBank() }

// TotalCells returns the number of cells in the module.
func (g Geometry) TotalCells() int { return g.TotalRows() * g.Cols }

// WordsPerRow returns the number of 64-bit words storing one row.
func (g Geometry) WordsPerRow() int { return g.Cols / 64 }

// SubarrayOf returns the subarray index of a bank-level physical row.
func (g Geometry) SubarrayOf(row int) int { return row / g.RowsPerSubarray }

// SubarrayBase returns the first bank-level row of subarray sub.
func (g Geometry) SubarrayBase(sub int) int { return sub * g.RowsPerSubarray }

// SameSubarray reports whether two bank-level rows share a subarray.
func (g Geometry) SameSubarray(a, b int) bool { return g.SubarrayOf(a) == g.SubarrayOf(b) }

// SharedAggressorColumn implements the open-bitline column sharing of §2.1:
// two neighbouring subarrays share half of their bitlines through the sense
// amplifier stripe between them. By convention the even bitlines of
// subarray s pair with the odd bitlines of subarray s−1, and the odd
// bitlines of s pair with the even bitlines of s+1 (so the two neighbours
// of an aggressor subarray are disturbed on disjoint column parities,
// matching Obs 5).
//
// Given an aggressor subarray aggSub and a victim cell at (vSub, col), it
// returns the aggressor-subarray column whose driven voltage appears on
// the victim's bitline, and ok=false if the victim column is not shared
// with the aggressor subarray (it stays at the precharge level).
func (g Geometry) SharedAggressorColumn(aggSub, vSub, col int) (aggCol int, ok bool) {
	switch {
	case vSub == aggSub:
		return col, true
	case vSub == aggSub-1 && col%2 == 1:
		// Victim above the aggressor: victim odd ↔ aggressor even.
		return col - 1, true
	case vSub == aggSub+1 && col%2 == 0:
		// Victim below the aggressor: victim even ↔ aggressor odd.
		return col + 1, true
	default:
		return 0, false
	}
}

// PerturbedSubarrays returns the subarrays whose cells share at least one
// bitline with the aggressor subarray (the aggressor itself plus its
// physical neighbours, clipped at the bank edges). This is the paper's
// "three consecutive subarrays" blast region.
func (g Geometry) PerturbedSubarrays(aggSub int) []int {
	subs := make([]int, 0, 3)
	for s := aggSub - 1; s <= aggSub+1; s++ {
		if s >= 0 && s < g.SubarraysPerBank {
			subs = append(subs, s)
		}
	}
	return subs
}

// DefaultGeometry is the scaled-down laptop-class geometry used by the
// experiments: 4 banks × 8 subarrays × 1024 rows × 1024 columns ≈ 33.5M
// cells per module (real chips have 8K+ columns and many more subarrays;
// see DESIGN.md §5 for the scaling argument).
func DefaultGeometry() Geometry {
	return Geometry{Banks: 4, SubarraysPerBank: 8, RowsPerSubarray: 1024, Cols: 1024, Chips: 8}
}

// SmallGeometry is a tiny geometry for unit tests and exhaustive
// methodology checks (RowClone over every source/destination pair).
func SmallGeometry() Geometry {
	return Geometry{Banks: 1, SubarraysPerBank: 3, RowsPerSubarray: 32, Cols: 128, Chips: 2}
}
