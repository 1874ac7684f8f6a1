package dram

import (
	"fmt"

	"columndisturb/internal/faultmodel"
)

// epoch records one span of bank history during which some aggressor row(s)
// drove the bank's bitlines. Gaps between epochs are idle (all bitlines
// precharged at VDD/2). Epochs never overlap: a bank serializes commands.
//
// rho[b1+2*b2] is the effective coupling duty for a column whose shared
// aggressor bit is b1 in the (first) aggressor row and b2 in the second
// (0 when there is no second aggressor). The duty already folds in the
// access-pattern shape (tAggOn duty, precharge gaps, settling dead time),
// so a cell's exposure contribution is simply overlap × rho.
type epoch struct {
	fromNs, toNs float64
	aggSub       int
	data1        []uint64 // snapshot of the first aggressor row's content
	data2        []uint64 // nil for single-aggressor epochs
	rho          [4]float64
}

// Bank models one DRAM bank: row storage, open-row state, per-row restore
// times, accumulated neighbour aggression (RowHammer/RowPress), and the
// bitline exposure history used to evaluate ColumnDisturb at read time.
//
// Like its owning Device, a Bank is NOT goroutine-safe: commands mutate
// the open-row state and epoch history in place. Confine each Device (and
// therefore its Banks) to a single goroutine; see the Device doc comment.
type Bank struct {
	geom   Geometry
	index  int
	params *faultmodel.Params
	seed   uint64

	rows        [][]uint64 // stored data, [row][word]
	restoredNs  []float64  // last time each row's charge was restored
	aggression  []float64  // RowHammer-equivalent activations since restore
	epochs      []epoch
	ovScratch   []epochOverlap // reused by commitFaults, one entry per live epoch
	openRow     int            // -1 when precharged
	openedAtNs  float64
	lastPreNs   float64 // time of the last PRE (for RowClone detection)
	lastOpenRow int     // row open before the last PRE
}

func newBank(geom Geometry, index int, params *faultmodel.Params, seed uint64) *Bank {
	rows := make([][]uint64, geom.RowsPerBank())
	backing := make([]uint64, geom.RowsPerBank()*geom.WordsPerRow())
	for i := range rows {
		rows[i], backing = backing[:geom.WordsPerRow()], backing[geom.WordsPerRow():]
	}
	return &Bank{
		geom:        geom,
		index:       index,
		params:      params,
		seed:        seed,
		rows:        rows,
		restoredNs:  make([]float64, geom.RowsPerBank()),
		aggression:  make([]float64, geom.RowsPerBank()),
		epochs:      nil,
		openRow:     -1,
		lastPreNs:   -1e18,
		lastOpenRow: -1,
	}
}

func (b *Bank) checkRow(row int) error {
	if row < 0 || row >= b.geom.RowsPerBank() {
		return fmt.Errorf("dram: row %d out of range [0,%d)", row, b.geom.RowsPerBank())
	}
	return nil
}

// activate opens a row at time nowNs. If the preceding precharge was
// interrupted (ACT issued within the RowClone violation window of the PRE)
// and the previously open row is in the same subarray, the sense amplifiers
// still hold the previous row's content and this activation overwrites the
// new row with it — the RowClone in-DRAM copy the paper's methodology uses
// to reverse engineer subarray boundaries (§3.2).
func (b *Bank) activate(nowNs float64, row int, timing Timing) error {
	if err := b.checkRow(row); err != nil {
		return err
	}
	if b.openRow >= 0 {
		return fmt.Errorf("dram: bank %d: ACT row %d while row %d open", b.index, row, b.openRow)
	}
	if b.lastOpenRow >= 0 && nowNs-b.lastPreNs < timing.RowCloneViolationNs &&
		b.geom.SameSubarray(b.lastOpenRow, row) && row != b.lastOpenRow {
		copy(b.rows[row], b.rows[b.lastOpenRow])
	}
	b.openRow = row
	b.openedAtNs = nowNs
	// Activation restores the row's charge through the sense amplifiers and
	// clears any accumulated neighbour aggression against it.
	b.restoredNs[row] = nowNs
	b.aggression[row] = 0
	return nil
}

// precharge closes the open row at time nowNs, recording the bitline
// exposure epoch of the open interval.
func (b *Bank) precharge(nowNs float64) error {
	if b.openRow < 0 {
		return fmt.Errorf("dram: bank %d: PRE while no row open", b.index)
	}
	open := nowNs - b.openedAtNs
	if open > 0 {
		snapshot := append([]uint64(nil), b.rows[b.openRow]...)
		b.appendEpoch(epoch{
			fromNs: b.openedAtNs,
			toNs:   nowNs,
			aggSub: b.geom.SubarrayOf(b.openRow),
			data1:  snapshot,
			rho: [4]float64{
				b.params.RhoHammer(open, 0, 0),
				b.params.RhoHammer(open, 0, 1),
				0, 0,
			},
		})
		// One activation held open for `open` ns: RowPress-equivalent
		// damage on the immediate neighbours.
		b.addNeighborAggression(b.openRow, b.params.PressEquivalentActs(1, open))
	}
	b.lastPreNs = nowNs
	b.lastOpenRow = b.openRow
	b.openRow = -1
	return nil
}

// appendEpoch keeps the epoch list ordered and merges nothing; callers only
// append monotonically increasing intervals.
func (b *Bank) appendEpoch(e epoch) {
	if n := len(b.epochs); n > 0 && e.fromNs < b.epochs[n-1].toNs {
		// Clamp defensively: epochs must not overlap.
		e.fromNs = b.epochs[n-1].toNs
		if e.fromNs >= e.toNs {
			return
		}
	}
	b.epochs = append(b.epochs, e)
}

func (b *Bank) addNeighborAggression(aggRow int, equivActs float64) {
	for _, r := range []int{aggRow - 1, aggRow + 1} {
		if r >= 0 && r < b.geom.RowsPerBank() && b.geom.SameSubarray(aggRow, r) {
			b.aggression[r] += equivActs
		}
	}
}

// hammer fast-forwards numActs cycles of the single-aggressor pattern
// ACT(row)–tAggOn–PRE–tRP–… starting at nowNs. The bank must be precharged.
// It returns the end time.
func (b *Bank) hammer(nowNs float64, row, numActs int, tAggOnNs, tRPNs float64) (float64, error) {
	if err := b.checkRow(row); err != nil {
		return nowNs, err
	}
	if b.openRow >= 0 {
		return nowNs, fmt.Errorf("dram: bank %d: hammer while row %d open", b.index, b.openRow)
	}
	if numActs <= 0 {
		return nowNs, nil
	}
	end := nowNs + float64(numActs)*(tAggOnNs+tRPNs)
	snapshot := append([]uint64(nil), b.rows[row]...)
	b.appendEpoch(epoch{
		fromNs: nowNs,
		toNs:   end,
		aggSub: b.geom.SubarrayOf(row),
		data1:  snapshot,
		rho: [4]float64{
			b.params.RhoHammer(tAggOnNs, tRPNs, 0),
			b.params.RhoHammer(tAggOnNs, tRPNs, 1),
			0, 0,
		},
	})
	b.restoredNs[row] = end // each activation restores the aggressor
	b.aggression[row] = 0
	b.addNeighborAggression(row, b.params.PressEquivalentActs(numActs, tAggOnNs))
	b.lastPreNs = end
	b.lastOpenRow = row
	return end, nil
}

// hammerTwo fast-forwards numPairs cycles of the two-aggressor pattern
// ACT(row1)–tAggOn–PRE–tRP–ACT(row2)–tAggOn–PRE–tRP–…; each aggressor is
// activated numPairs times.
func (b *Bank) hammerTwo(nowNs float64, row1, row2, numPairs int, tAggOnNs, tRPNs float64) (float64, error) {
	if err := b.checkRow(row1); err != nil {
		return nowNs, err
	}
	if err := b.checkRow(row2); err != nil {
		return nowNs, err
	}
	if b.openRow >= 0 {
		return nowNs, fmt.Errorf("dram: bank %d: hammer while row %d open", b.index, b.openRow)
	}
	if !b.geom.SameSubarray(row1, row2) {
		return nowNs, fmt.Errorf("dram: two-aggressor rows %d,%d must share a subarray", row1, row2)
	}
	if numPairs <= 0 {
		return nowNs, nil
	}
	end := nowNs + float64(numPairs)*2*(tAggOnNs+tRPNs)
	d1 := append([]uint64(nil), b.rows[row1]...)
	d2 := append([]uint64(nil), b.rows[row2]...)
	var rho [4]float64
	for b2 := 0; b2 < 2; b2++ {
		for b1 := 0; b1 < 2; b1++ {
			rho[b1+2*b2] = b.params.RhoTwoAggressor(tAggOnNs, tRPNs, float64(b1), float64(b2))
		}
	}
	b.appendEpoch(epoch{
		fromNs: nowNs, toNs: end,
		aggSub: b.geom.SubarrayOf(row1),
		data1:  d1, data2: d2,
		rho: rho,
	})
	for _, r := range []int{row1, row2} {
		b.restoredNs[r] = end
		b.aggression[r] = 0
		b.addNeighborAggression(r, b.params.PressEquivalentActs(numPairs, tAggOnNs))
	}
	b.lastPreNs = end
	b.lastOpenRow = row2
	return end, nil
}

// writeRow overwrites a row's content and restores its charge (the
// device-level collapse of ACT+WR+PRE used by test initialization).
func (b *Bank) writeRow(nowNs float64, row int, words []uint64) error {
	if err := b.checkRow(row); err != nil {
		return err
	}
	copy(b.rows[row], words)
	b.restoredNs[row] = nowNs
	b.aggression[row] = 0
	return nil
}

// refreshRow restores one row's charge in place (REF targeting the row, or
// an ACT+PRE refresh). Pending disturbance is evaluated and committed
// first: refresh rewrites whatever the sense amplifiers latch, including
// already-flipped cells.
func (b *Bank) refreshRow(nowNs float64, row int, tempC float64, trial int) error {
	if err := b.checkRow(row); err != nil {
		return err
	}
	b.commitFaults(nowNs, row, tempC, trial)
	return nil
}

// refreshAll restores every row (an all-bank REF sweep).
func (b *Bank) refreshAll(nowNs float64, tempC float64, trial int) {
	for r := range b.rows {
		b.commitFaults(nowNs, r, tempC, trial)
	}
	b.pruneEpochs()
}

// readRow evaluates all pending faults of the row, commits them, restores
// the row (a read is ACT+RD+PRE: the activation rewrites the latched,
// possibly corrupted, values) and returns a copy of the data.
func (b *Bank) readRow(nowNs float64, row int, tempC float64, trial int) ([]uint64, error) {
	if err := b.checkRow(row); err != nil {
		return nil, err
	}
	b.commitFaults(nowNs, row, tempC, trial)
	out := append([]uint64(nil), b.rows[row]...)
	return out, nil
}

// peekRaw returns the stored bits without fault evaluation (test hook).
func (b *Bank) peekRaw(row int) []uint64 {
	return append([]uint64(nil), b.rows[row]...)
}

// commitFaults applies every disturbance accumulated since the row's last
// restore and marks the row restored at nowNs. The per-row invariants —
// lognormal row components, epoch interval clamping — are hoisted out of
// the per-column loop; the arithmetic is unchanged, so the committed bits
// are identical to evaluating each cell independently.
func (b *Bank) commitFaults(nowNs float64, row int, tempC float64, trial int) {
	elapsedNs := nowNs - b.restoredNs[row]
	if elapsedNs > 0 {
		sub := b.geom.SubarrayOf(row)
		words := b.rows[row]
		elapsedMs := elapsedNs * 1e-6
		rhoIdle := b.params.RhoIdle()
		baseFac := b.params.BaseTempFactor(tempC)
		kapFac := b.params.KappaTempFactor(tempC)
		agg := b.aggression[row]
		rf := b.params.Row(b.seed, b.index, sub, row)
		overlaps := b.overlapEpochs(b.restoredNs[row], nowNs)
		for col := 0; col < b.geom.Cols; col++ {
			stored := WordBit(words, col)
			cf := rf.Cell(col)
			// Charge decay: retention + ColumnDisturb.
			if stored == cf.ChargedBit() {
				exposureMs := b.exposureMs(overlaps, sub, col, elapsedNs, rhoIdle)
				vrt := b.params.VRTMultiplier(b.seed, b.index, sub, row, col, trial)
				integral := cf.LambdaBase*vrt*baseFac*elapsedMs + cf.Kappa*kapFac*exposureMs
				if faultmodel.Flips(integral) {
					SetWordBit(words, col, 1-stored)
					stored = 1 - stored
				}
			}
			// RowHammer/RowPress on immediate neighbours of an aggressor.
			if agg > 0 && stored != cf.Attractor && agg >= cf.HammerThreshold {
				SetWordBit(words, col, cf.Attractor)
			}
		}
	}
	b.restoredNs[row] = nowNs
	b.aggression[row] = 0
}

// epochOverlap is one epoch's clamped overlap with the interval currently
// being committed. The clamping depends only on the interval, never the
// cell, so commitFaults computes it once per row.
type epochOverlap struct {
	e    *epoch
	ovNs float64
}

// overlapEpochs collects the epochs intersecting [fromNs, toNs) with their
// clamped durations into the bank's reusable scratch slice.
func (b *Bank) overlapEpochs(fromNs, toNs float64) []epochOverlap {
	out := b.ovScratch[:0]
	for i := range b.epochs {
		e := &b.epochs[i]
		if e.toNs <= fromNs || e.fromNs >= toNs {
			continue
		}
		lo, hi := e.fromNs, e.toNs
		if lo < fromNs {
			lo = fromNs
		}
		if hi > toNs {
			hi = toNs
		}
		if ov := hi - lo; ov > 0 {
			out = append(out, epochOverlap{e: e, ovNs: ov})
		}
	}
	b.ovScratch = out
	return out
}

// exposureMs integrates the effective coupling duty seen by the cell at
// (sub, col) over the committed interval of length totalNs: overlapping
// epochs contribute their rho for the shared-column drive value, everything
// else contributes the idle (precharged) duty.
func (b *Bank) exposureMs(overlaps []epochOverlap, sub, col int, totalNs, rhoIdle float64) float64 {
	exposure := 0.0
	covered := 0.0
	for _, o := range overlaps {
		e := o.e
		aggCol, shared := b.geom.SharedAggressorColumn(e.aggSub, sub, col)
		rho := rhoIdle
		if shared {
			// A cell in the aggressor row itself is restored by each
			// activation; its exposure is irrelevant because restoredNs
			// already advanced past the epoch. No special case needed.
			b1 := WordBit(e.data1, aggCol)
			b2 := byte(0)
			if e.data2 != nil {
				b2 = WordBit(e.data2, aggCol)
			}
			rho = e.rho[int(b1)+2*int(b2)]
		}
		exposure += o.ovNs * rho
		covered += o.ovNs
	}
	exposure += (totalNs - covered) * rhoIdle
	return exposure * 1e-6
}

// pruneEpochs drops epochs that end before every row's restore time; they
// can no longer contribute to any exposure integral.
func (b *Bank) pruneEpochs() {
	if len(b.epochs) == 0 {
		return
	}
	minRestore := b.restoredNs[0]
	for _, t := range b.restoredNs[1:] {
		if t < minRestore {
			minRestore = t
		}
	}
	keep := b.epochs[:0]
	for _, e := range b.epochs {
		if e.toNs > minRestore {
			keep = append(keep, e)
		}
	}
	b.epochs = keep
}
