package bender

import (
	"fmt"

	"columndisturb/internal/dram"
)

// DefaultMaxLiteralIterations bounds literal (non-fast-forwarded) loop
// execution; canonical hammer loops are fast-forwarded analytically and do
// not count against it. Programs exceeding the bound indicate a loop body
// the interpreter does not recognize — almost always a bug in the program.
const DefaultMaxLiteralIterations = 200_000

// Host drives test programs against a module, the role of the FPGA + host
// machine pair in the real infrastructure.
type Host struct {
	mod *dram.Module
}

// NewHost attaches a host to a module under test.
func NewHost(mod *dram.Module) *Host {
	return &Host{mod: mod}
}

// Module returns the module under test.
func (h *Host) Module() *dram.Module { return h.mod }

// SetTemperature retargets the temperature rig immediately (the controller
// reaches ±0.5 °C in the real setup; the model treats it as exact).
func (h *Host) SetTemperature(c float64) { h.mod.SetTemperature(c) }

// Run executes a program and returns its read records.
func (h *Host) Run(p Program) (*Result, error) {
	res := &Result{}
	if err := h.exec(p.Instrs, res); err != nil {
		return nil, fmt.Errorf("bender: program %q: %w", p.Name, err)
	}
	return res, nil
}

func (h *Host) exec(instrs []Instr, res *Result) error {
	for _, in := range instrs {
		switch v := in.(type) {
		case Act:
			if err := h.mod.ActivateLogical(v.Bank, v.Row); err != nil {
				return err
			}
			res.ActsIssued++
		case Pre:
			if err := h.mod.Precharge(v.Bank); err != nil {
				return err
			}
		case Wait:
			if v.Ns < 0 {
				return fmt.Errorf("negative wait %v", v.Ns)
			}
			h.mod.AdvanceNs(v.Ns)
			res.ElapsedNs += v.Ns
		case Write:
			if err := h.mod.WriteLogicalPattern(v.Bank, v.Row, v.Pattern); err != nil {
				return err
			}
		case Read:
			data, err := h.mod.ReadLogical(v.Bank, v.Row)
			if err != nil {
				return err
			}
			res.Reads = append(res.Reads, ReadRecord{Bank: v.Bank, Row: v.Row, Tag: v.Tag, Data: data})
		case RefreshAll:
			if err := h.mod.RefreshAll(v.Bank); err != nil {
				return err
			}
		case RefreshRow:
			if err := h.mod.RefreshRow(v.Bank, h.mod.Mapping().Physical(v.Row)); err != nil {
				return err
			}
		case SetTemp:
			h.mod.SetTemperature(v.CelsiusC)
		case Loop:
			if err := h.execLoop(v, res); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown instruction %T", in)
		}
	}
	return nil
}

func (h *Host) execLoop(l Loop, res *Result) error {
	if l.Count <= 0 {
		return nil
	}
	// Canonical single-aggressor hammer body:
	// ACT r – Wait tAggOn – PRE – Wait tRP.
	if b, row, on, off, ok := matchHammerBody(l.Body); ok {
		phys := h.mod.Mapping().Physical(row)
		if err := h.mod.Hammer(b, phys, l.Count, on, off); err != nil {
			return err
		}
		res.ActsIssued += l.Count
		res.ElapsedNs += float64(l.Count) * (on + off)
		return nil
	}
	// Canonical two-aggressor body.
	if b, r1, r2, on, off, ok := matchTwoAggressorBody(l.Body); ok {
		p1, p2 := h.mod.Mapping().Physical(r1), h.mod.Mapping().Physical(r2)
		if err := h.mod.HammerTwo(b, p1, p2, l.Count, on, off); err != nil {
			return err
		}
		res.ActsIssued += 2 * l.Count
		res.ElapsedNs += float64(l.Count) * 2 * (on + off)
		return nil
	}
	// Literal execution for everything else.
	if work := l.Count * len(l.Body); work > DefaultMaxLiteralIterations {
		return fmt.Errorf("literal loop of %d instruction executions exceeds limit %d "+
			"(use a canonical hammer body for fast-forwarding)", work, DefaultMaxLiteralIterations)
	}
	for i := 0; i < l.Count; i++ {
		if err := h.exec(l.Body, res); err != nil {
			return err
		}
	}
	return nil
}

func matchHammerBody(body []Instr) (bank, row int, onNs, offNs float64, ok bool) {
	if len(body) != 4 {
		return
	}
	act, ok1 := body[0].(Act)
	w1, ok2 := body[1].(Wait)
	pre, ok3 := body[2].(Pre)
	w2, ok4 := body[3].(Wait)
	if !(ok1 && ok2 && ok3 && ok4) || act.Bank != pre.Bank {
		return
	}
	return act.Bank, act.Row, w1.Ns, w2.Ns, true
}

func matchTwoAggressorBody(body []Instr) (bank, r1, r2 int, onNs, offNs float64, ok bool) {
	if len(body) != 8 {
		return
	}
	b1, row1, on1, off1, ok1 := matchHammerBody(body[:4])
	b2, row2, on2, off2, ok2 := matchHammerBody(body[4:])
	if !(ok1 && ok2) || b1 != b2 || on1 != on2 || off1 != off2 || row1 == row2 {
		return
	}
	return b1, row1, row2, on1, off1, true
}
