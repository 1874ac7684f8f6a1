package dram

import "fmt"

// RowMapping is an in-DRAM logical-to-physical row address translation.
// DRAM manufacturers remap row addresses internally (§3.1), so the row a
// memory controller names is generally not the physically adjacent one;
// the characterization methodology must reverse engineer the mapping
// before any neighbour-based reasoning is sound.
type RowMapping interface {
	// Physical translates a logical (externally visible) row address into
	// the physical row index inside the bank.
	Physical(logical int) int
	// Logical is the inverse of Physical.
	Logical(physical int) int
}

// DirectMapping is the identity mapping.
type DirectMapping struct{}

func (DirectMapping) Physical(l int) int { return l }
func (DirectMapping) Logical(p int) int  { return p }

// GroupScramble permutes row addresses within aligned groups of 2^GroupBits
// rows — the shape of several published DDR4 vendor mappings, where rows
// are scrambled in blocks of 8 or 16 but block order is preserved.
type GroupScramble struct {
	GroupBits int
	Perm      []int // len 2^GroupBits, a permutation
	inverse   []int
}

// NewGroupScramble builds a GroupScramble, validating the permutation.
func NewGroupScramble(groupBits int, perm []int) (*GroupScramble, error) {
	n := 1 << groupBits
	if len(perm) != n {
		return nil, fmt.Errorf("dram: permutation length %d, want %d", len(perm), n)
	}
	inv := make([]int, n)
	seen := make([]bool, n)
	for i, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("dram: invalid permutation %v", perm)
		}
		seen[p] = true
		inv[p] = i
	}
	return &GroupScramble{GroupBits: groupBits, Perm: append([]int(nil), perm...), inverse: inv}, nil
}

func (g *GroupScramble) Physical(l int) int {
	mask := (1 << g.GroupBits) - 1
	return l&^mask | g.Perm[l&mask]
}

func (g *GroupScramble) Logical(p int) int {
	mask := (1 << g.GroupBits) - 1
	return p&^mask | g.inverse[p&mask]
}

// Module couples a Device with the logical row addressing a host sees. All
// bender programs address rows logically; characterization code that wants
// physical adjacency must reverse engineer (or be told) the mapping.
type Module struct {
	*Device
	mapping RowMapping
}

// NewModule wraps a device with a row mapping (DirectMapping if nil).
func NewModule(d *Device, m RowMapping) *Module {
	if m == nil {
		m = DirectMapping{}
	}
	return &Module{Device: d, mapping: m}
}

// Mapping returns the module's logical-to-physical row mapping.
func (m *Module) Mapping() RowMapping { return m.mapping }

// ActivateLogical issues ACT to a logical row address.
func (m *Module) ActivateLogical(bank, logicalRow int) error {
	return m.Device.Activate(bank, m.mapping.Physical(logicalRow))
}

// ReadLogical reads a logical row (faults evaluated and committed).
func (m *Module) ReadLogical(bank, logicalRow int) ([]uint64, error) {
	return m.Device.ReadRow(bank, m.mapping.Physical(logicalRow))
}

// WriteLogicalPattern fills a logical row with a data pattern.
func (m *Module) WriteLogicalPattern(bank, logicalRow int, p DataPattern) error {
	return m.Device.WriteRowPattern(bank, m.mapping.Physical(logicalRow), p)
}
