// Package charz implements the paper's characterization methodology (§3.2)
// on top of the bender testing infrastructure: reverse engineering of
// subarray boundaries via RowClone, bisection search for the time to the
// first ColumnDisturb bitflip, and guard-filtered disturbance runs whose
// bitflip metrics exclude the aggressor's RowHammer/RowPress
// neighbourhood.
package charz

import (
	"math/bits"

	"columndisturb/internal/bender"
	"columndisturb/internal/bitset"
	"columndisturb/internal/dram"
)

// Filter selects which observed bitflips count towards ColumnDisturb
// metrics: flips in the aggressor row and its nearest neighbours
// (RowHammer/RowPress territory) are excluded with a guard band.
type Filter struct {
	// ExcludedRows are bank-level rows whose flips are ignored entirely.
	ExcludedRows *bitset.Set
}

// RowExcluded reports whether the row is filtered out.
func (f *Filter) RowExcluded(row int) bool {
	return f != nil && f.ExcludedRows.Contains(row)
}

// GuardRows returns the paper's guard band: the aggressor row plus the
// `guard` nearest rows on each side that lie in the same subarray
// (industry read-disturbance mitigations refresh up to eight neighbours, so
// the paper excludes eight nearest victims; guard=4 reproduces that).
func GuardRows(g dram.Geometry, aggRows []int, guard int) *bitset.Set {
	out := bitset.New(g.RowsPerBank())
	for _, agg := range aggRows {
		for r := agg - guard; r <= agg+guard; r++ {
			if r >= 0 && r < g.RowsPerBank() && g.SameSubarray(agg, r) {
				out.Add(r)
			}
		}
	}
	return out
}

// RowFlips summarizes the bitflips of one row against its expected pattern.
type RowFlips struct {
	Row        int
	Flips      int // total counted flips (after filtering)
	OneToZero  int
	ZeroToOne  int
	ChunkFlips []int // flips per 64-bit (8-byte) chunk index, for ECC analysis
}

// DiffReads compares read records against the expected victim pattern and
// returns per-row flip summaries, applying the filter. Data patterns are
// byte-periodic, so every correct data word equals dram.PatternWord(want);
// XORing against it finds the flipped columns of 64 cells at once, and
// direction bookkeeping runs only on the (rare) set bits.
func DiffReads(recs []bender.ReadRecord, want dram.DataPattern, f *Filter) []RowFlips {
	expWord := dram.PatternWord(want)
	var out []RowFlips
	for _, rec := range recs {
		if f.RowExcluded(rec.Row) {
			continue
		}
		rf := RowFlips{Row: rec.Row, ChunkFlips: make([]int, len(rec.Data))}
		for w, word := range rec.Data {
			diff := word ^ expWord
			for diff != 0 {
				b := bits.TrailingZeros64(diff)
				diff &= diff - 1
				rf.Flips++
				rf.ChunkFlips[w]++
				if expWord>>uint(b)&1 == 1 {
					rf.OneToZero++
				} else {
					rf.ZeroToOne++
				}
			}
		}
		out = append(out, rf)
	}
	return out
}

// Totals aggregates row summaries.
type Totals struct {
	Flips      int
	OneToZero  int
	ZeroToOne  int
	RowsWith   int // blast radius: rows with at least one counted flip
	RowsTested int
}

// Aggregate computes totals over row summaries.
func Aggregate(rows []RowFlips) Totals {
	var t Totals
	for _, r := range rows {
		t.RowsTested++
		t.Flips += r.Flips
		t.OneToZero += r.OneToZero
		t.ZeroToOne += r.ZeroToOne
		if r.Flips > 0 {
			t.RowsWith++
		}
	}
	return t
}

// ChunkHistogram builds the Fig 21 distribution: how many 8-byte chunks
// contain exactly k bitflips, for k = 1..maxK (larger counts clamp to
// maxK).
func ChunkHistogram(rows []RowFlips, maxK int) []int {
	hist := make([]int, maxK+1) // index k = chunks with k flips; index 0 unused
	for _, r := range rows {
		for _, n := range r.ChunkFlips {
			if n < 1 {
				continue
			}
			if n > maxK {
				n = maxK
			}
			hist[n]++
		}
	}
	return hist
}
