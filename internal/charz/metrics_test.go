package charz

import (
	"testing"

	"columndisturb/internal/bender"
	"columndisturb/internal/bitset"
	"columndisturb/internal/dram"
)

func TestGuardRowsClipsToSubarray(t *testing.T) {
	g := dram.SmallGeometry() // 32 rows per subarray
	// Aggressor at the first row of subarray 1: the guard band must not
	// leak into subarray 0 (RowHammer does not cross sense amplifiers).
	agg := g.SubarrayBase(1)
	guard := GuardRows(g, []int{agg}, 4)
	if !guard.Contains(agg) || !guard.Contains(agg+4) {
		t.Fatal("guard band must include aggressor and +4")
	}
	if guard.Contains(agg - 1) {
		t.Fatal("guard band leaked across the subarray boundary")
	}
	if guard.Len() != 5 {
		t.Fatalf("guard size %d, want 5 (aggressor + 4 below)", guard.Len())
	}
	// Interior aggressor: full ±4 band.
	agg = g.SubarrayBase(1) + 16
	if got := GuardRows(g, []int{agg}, 4).Len(); got != 9 {
		t.Fatalf("interior guard size %d, want 9", got)
	}
}

func mkRecord(row int, pattern dram.DataPattern, flipCols []int) bender.ReadRecord {
	words := make([]uint64, 2) // 128 columns
	dram.FillWords(words, pattern)
	for _, c := range flipCols {
		dram.SetWordBit(words, c, 1-pattern.Bit(c))
	}
	return bender.ReadRecord{Row: row, Data: words}
}

func TestDiffReadsDirections(t *testing.T) {
	recs := []bender.ReadRecord{
		mkRecord(3, dram.PatAA, []int{0, 1, 65}), // col0: 0→1, col1: 1→0, col65: 1→0
	}
	rows := DiffReads(recs, dram.PatAA, &Filter{})
	if len(rows) != 1 {
		t.Fatalf("want 1 row summary, got %d", len(rows))
	}
	r := rows[0]
	if r.Flips != 3 || r.ZeroToOne != 1 || r.OneToZero != 2 {
		t.Fatalf("bad directions: %+v", r)
	}
	if r.ChunkFlips[0] != 2 || r.ChunkFlips[1] != 1 {
		t.Fatalf("bad chunk counts: %v", r.ChunkFlips)
	}
}

func TestDiffReadsRowExclusion(t *testing.T) {
	recs := []bender.ReadRecord{
		mkRecord(3, dram.PatFF, []int{5}),
		mkRecord(4, dram.PatFF, []int{6}),
	}
	f := &Filter{ExcludedRows: bitset.Of(3)}
	rows := DiffReads(recs, dram.PatFF, f)
	if len(rows) != 1 || rows[0].Row != 4 {
		t.Fatalf("row exclusion failed: %+v", rows)
	}
}

func TestDiffReadsNilFilter(t *testing.T) {
	recs := []bender.ReadRecord{mkRecord(1, dram.PatFF, []int{0})}
	rows := DiffReads(recs, dram.PatFF, nil)
	if len(rows) != 1 || rows[0].Flips != 1 {
		t.Fatal("nil filter should count everything")
	}
}

func TestAggregateAndBlastRadius(t *testing.T) {
	recs := []bender.ReadRecord{
		mkRecord(0, dram.PatFF, []int{1, 2}),
		mkRecord(1, dram.PatFF, nil),
		mkRecord(2, dram.PatFF, []int{7}),
	}
	tot := Aggregate(DiffReads(recs, dram.PatFF, &Filter{}))
	if tot.Flips != 3 || tot.RowsWith != 2 || tot.RowsTested != 3 {
		t.Fatalf("bad totals: %+v", tot)
	}
	if tot.OneToZero != 3 || tot.ZeroToOne != 0 {
		t.Fatalf("bad directions: %+v", tot)
	}
}

func TestChunkHistogramClamps(t *testing.T) {
	recs := []bender.ReadRecord{
		mkRecord(0, dram.PatFF, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}), // 18 flips in chunk 0
		mkRecord(1, dram.PatFF, []int{64}),
		mkRecord(2, dram.PatFF, []int{64, 65, 66}),
	}
	rows := DiffReads(recs, dram.PatFF, &Filter{})
	hist := ChunkHistogram(rows, 15)
	if hist[15] != 1 { // 18 clamps to 15
		t.Fatalf("clamped bucket wrong: %v", hist)
	}
	if hist[1] != 1 || hist[3] != 1 {
		t.Fatalf("histogram wrong: %v", hist)
	}
}
