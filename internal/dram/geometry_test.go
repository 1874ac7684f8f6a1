package dram

import (
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	if err := SmallGeometry().Validate(); err != nil {
		t.Fatalf("small geometry invalid: %v", err)
	}
	bad := []Geometry{
		{Banks: 0, SubarraysPerBank: 1, RowsPerSubarray: 2, Cols: 64, Chips: 1},
		{Banks: 1, SubarraysPerBank: 0, RowsPerSubarray: 2, Cols: 64, Chips: 1},
		{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 1, Cols: 64, Chips: 1},
		{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 2, Cols: 65, Chips: 1},
		{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 2, Cols: 128, Chips: 3},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad geometry %d accepted", i)
		}
	}
}

func TestGeometryHelpers(t *testing.T) {
	g := Geometry{Banks: 2, SubarraysPerBank: 4, RowsPerSubarray: 16, Cols: 128, Chips: 2}
	if g.RowsPerBank() != 64 || g.TotalRows() != 128 || g.TotalCells() != 128*128 {
		t.Fatal("size helpers wrong")
	}
	if g.WordsPerRow() != 2 {
		t.Fatal("words per row wrong")
	}
	if g.SubarrayOf(17) != 1 {
		t.Fatal("subarray addressing wrong")
	}
	if g.SubarrayBase(2) != 32 {
		t.Fatal("subarray base wrong")
	}
	if !g.SameSubarray(16, 31) || g.SameSubarray(15, 16) {
		t.Fatal("SameSubarray wrong")
	}
}

func TestSharedAggressorColumnParity(t *testing.T) {
	g := SmallGeometry()
	// Same subarray: every column is perturbed, identity mapping.
	if c, ok := g.SharedAggressorColumn(1, 1, 7); !ok || c != 7 {
		t.Fatal("same-subarray sharing wrong")
	}
	// Upper neighbour: only odd victim columns, paired with even aggressor.
	if c, ok := g.SharedAggressorColumn(1, 0, 5); !ok || c != 4 {
		t.Fatal("upper-neighbour odd column should pair with even aggressor column")
	}
	if _, ok := g.SharedAggressorColumn(1, 0, 4); ok {
		t.Fatal("upper-neighbour even column must not be shared")
	}
	// Lower neighbour: only even victim columns, paired with odd aggressor.
	if c, ok := g.SharedAggressorColumn(1, 2, 4); !ok || c != 5 {
		t.Fatal("lower-neighbour even column should pair with odd aggressor column")
	}
	if _, ok := g.SharedAggressorColumn(1, 2, 5); ok {
		t.Fatal("lower-neighbour odd column must not be shared")
	}
	// Distant subarrays are never shared (Obs 4: only three consecutive
	// subarrays are affected).
	if _, ok := g.SharedAggressorColumn(0, 2, 4); ok {
		t.Fatal("non-adjacent subarrays must not share columns")
	}
}

func TestSharedColumnsDisjointAcrossNeighbours(t *testing.T) {
	// Obs 5: the two neighbours of an aggressor subarray are disturbed on
	// disjoint column parities.
	g := DefaultGeometry()
	f := func(colRaw uint16) bool {
		col := int(colRaw) % g.Cols
		_, up := g.SharedAggressorColumn(1, 0, col)
		_, down := g.SharedAggressorColumn(1, 2, col)
		return !(up && down)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSharedColumnInBounds(t *testing.T) {
	g := DefaultGeometry()
	f := func(aggRaw, subRaw uint8, colRaw uint16) bool {
		agg := int(aggRaw) % g.SubarraysPerBank
		sub := int(subRaw) % g.SubarraysPerBank
		col := int(colRaw) % g.Cols
		aggCol, ok := g.SharedAggressorColumn(agg, sub, col)
		if !ok {
			return true
		}
		return aggCol >= 0 && aggCol < g.Cols
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPerturbedSubarrays(t *testing.T) {
	g := SmallGeometry() // 3 subarrays
	cases := []struct {
		agg  int
		want []int
	}{
		{0, []int{0, 1}},
		{1, []int{0, 1, 2}},
		{2, []int{1, 2}},
	}
	for _, c := range cases {
		got := g.PerturbedSubarrays(c.agg)
		if len(got) != len(c.want) {
			t.Fatalf("agg %d: got %v want %v", c.agg, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("agg %d: got %v want %v", c.agg, got, c.want)
			}
		}
	}
}
