package memsim

import (
	"fmt"

	"columndisturb/internal/sim/rng"
)

// CoreResult reports one core's measured performance.
type CoreResult struct {
	Workload     CoreWorkload
	Instructions int64
	TimeNs       float64
	IPC          float64
	Requests     int64
	RowHits      int64
}

// RunResult reports one simulation run.
type RunResult struct {
	Cores     []CoreResult
	ElapsedNs float64
	Acts      int64
	Pres      int64 // explicit + speculative precharges
	Reads     int64
	Writes    int64
	RefStalls int64 // commands delayed by a refresh occupancy window
}

// maxMPKI bounds the workload's miss intensity at one last-level-cache miss
// per instruction. Beyond it the instruction gap between misses drops below
// one, which has no microarchitectural meaning — and under the old integer
// gap truncation it hung the simulator (gap truncated to 0 meant cores never
// retired anything).
const maxMPKI = 1000

// coreState is the simulator's per-core bookkeeping, in integer DRAM
// cycles. The core is a simple out-of-order model: it executes the
// instruction gap between misses at peak IPC and sustains up to MLP
// outstanding misses; a new miss can issue once its compute is done and the
// miss MLP positions back has completed.
type coreState struct {
	stream       *stream
	gap          float64 // instructions per miss (1000/MPKI, often fractional)
	computeCyc   int64   // compute cycles between misses (rounded up)
	computeReady int64
	completions  []int64 // ring buffer of the last MLP completion cycles
	compIdx      int
	issued       int64
	lastDone     int64
	// retired accumulates in float64 so fractional gaps neither truncate to
	// zero (the MPKI > 1000 hang) nor drift the measured instruction count.
	retired   float64
	measuring bool
	measStart int64   // completion cycle of the warmup-crossing miss
	measInstr float64 // instructions retired strictly inside the window
	requests  int64
	rowHits   int64
	done      bool
}

// nextIssue returns the earliest cycle the core can issue its next miss.
func (c *coreState) nextIssue() int64 {
	t := c.computeReady
	if c.issued >= int64(len(c.completions)) {
		if w := c.completions[c.compIdx]; w > t {
			t = w
		}
	}
	return t
}

// Run simulates the workload mix on the memory system under the given
// refresh engine. Deterministic for a given (mix, engine, seed): the whole
// simulation advances on an integer DRAM-cycle clock through the per-bank
// command state machine (see command.go), so there is no float timing state
// to accumulate or diverge.
func Run(cfg SystemConfig, mix []CoreWorkload, refresh RefreshEngine, seed uint64) (RunResult, error) {
	if len(mix) == 0 {
		return RunResult{}, fmt.Errorf("memsim: empty workload mix")
	}
	tim, err := cfg.Timing()
	if err != nil {
		return RunResult{}, err
	}
	if cfg.IPCPeak <= 0 || cfg.CPUGHz <= 0 {
		return RunResult{}, fmt.Errorf("memsim: IPCPeak %v and CPUGHz %v must be positive", cfg.IPCPeak, cfg.CPUGHz)
	}
	if cfg.WarmupInstr < 0 || cfg.MeasureInstr < 1 {
		return RunResult{}, fmt.Errorf("memsim: need WarmupInstr >= 0 and MeasureInstr >= 1, got %d/%d", cfg.WarmupInstr, cfg.MeasureInstr)
	}
	mlp := cfg.MLP
	if mlp < 1 {
		mlp = 1
	}
	cores := make([]*coreState, len(mix))
	for i, w := range mix {
		if w.MPKI <= 0 || w.MPKI > maxMPKI {
			return RunResult{}, fmt.Errorf("memsim: core %d MPKI %v out of (0, %d]", i, w.MPKI, maxMPKI)
		}
		gap := w.GapInstructions()
		cores[i] = &coreState{
			stream:      newStream(w, cfg, seed, i, len(mix)),
			gap:         gap,
			computeCyc:  tim.Cycles(gap / (cfg.IPCPeak * cfg.CPUGHz)),
			completions: make([]int64, mlp),
		}
	}
	mc := newController(cfg, tim, refresh)
	warm := float64(cfg.WarmupInstr)
	measure := float64(cfg.MeasureInstr)
	res := RunResult{Cores: make([]CoreResult, len(mix))}
	var endCyc int64
	active := len(cores)

	for active > 0 {
		// Pick the next core ready to issue.
		ci := -1
		var best int64
		for i, c := range cores {
			if c.done {
				continue
			}
			if t := c.nextIssue(); ci == -1 || t < best {
				ci, best = i, t
			}
		}
		c := cores[ci]
		req := c.stream.next()
		completion, hit := mc.access(req.bank, req.row, req.write, best)

		// Track the outstanding-miss window and retire the instruction gap
		// this miss anchors.
		c.completions[c.compIdx] = completion
		c.compIdx = (c.compIdx + 1) % len(c.completions)
		c.issued++
		if completion > c.lastDone {
			c.lastDone = completion
		}
		c.computeReady += c.computeCyc
		c.retired += c.gap
		switch {
		case c.measuring:
			// A miss fully inside the measuring window: its gap, request
			// and row-hit all count.
			c.measInstr += c.gap
			c.requests++
			if hit {
				c.rowHits++
			}
		case c.retired >= warm:
			// The miss crossing the warmup boundary belongs to warmup on
			// every axis — instructions, requests and row-hits alike — and
			// anchors the measuring clock at its completion.
			c.measuring = true
			c.measStart = completion
		}
		if c.measuring && c.measInstr >= measure {
			c.done = true
			active--
			cyc := c.lastDone - c.measStart
			if cyc <= 0 {
				cyc = 1
			}
			t := tim.Ns(cyc)
			// Restore by core index (never by workload name): a mix may
			// legitimately contain duplicate workload names, and each slot
			// must keep its own core's measurements.
			res.Cores[ci] = CoreResult{
				Workload:     mix[ci],
				Instructions: int64(c.measInstr + 0.5),
				TimeNs:       t,
				IPC:          c.measInstr / (t * cfg.CPUGHz),
				Requests:     c.requests,
				RowHits:      c.rowHits,
			}
		}
		if completion > endCyc {
			endCyc = completion
		}
	}
	res.ElapsedNs = tim.Ns(endCyc)
	res.Acts = mc.acts
	res.Pres = mc.pres
	res.Reads = mc.reads
	res.Writes = mc.writes
	res.RefStalls = mc.refStalls
	return res, nil
}

// SoloIPC measures a core's IPC running alone with refresh disabled — the
// denominator of weighted speedup.
func SoloIPC(cfg SystemConfig, w CoreWorkload, seed uint64) (float64, error) {
	res, err := Run(cfg, []CoreWorkload{w}, NoRefresh(), seed)
	if err != nil {
		return 0, err
	}
	return res.Cores[0].IPC, nil
}

// MixIPCs runs the mix under the refresh engine and returns the per-core
// shared IPCs — the raw measurements weighted speedup is reduced from.
// Plan builders that split a sweep across shards ship these instead of the
// reduced scalar, so the merge step can fold them against solo baselines
// measured in a different shard.
func MixIPCs(cfg SystemConfig, mix []CoreWorkload, refresh RefreshEngine, seed uint64) ([]float64, error) {
	res, err := Run(cfg, mix, refresh, seed)
	if err != nil {
		return nil, err
	}
	ipcs := make([]float64, len(res.Cores))
	for i, c := range res.Cores {
		ipcs[i] = c.IPC
	}
	return ipcs, nil
}

// WeightedSpeedupFrom reduces per-core shared IPCs against solo baselines:
// Σ IPC_shared/IPC_alone. It is the one reduction both WeightedSpeedup and
// split-plan merges use, so the two paths are bitwise identical.
func WeightedSpeedupFrom(sharedIPC, soloIPC []float64) float64 {
	ws := 0.0
	for i, ipc := range sharedIPC {
		if soloIPC[i] > 0 {
			ws += ipc / soloIPC[i]
		}
	}
	return ws
}

// WeightedSpeedup computes Σ IPC_shared/IPC_alone for the mix under the
// refresh engine. soloIPC may be nil, in which case the solo baselines are
// measured on the fly (callers doing sweeps should cache them).
func WeightedSpeedup(cfg SystemConfig, mix []CoreWorkload, refresh RefreshEngine, seed uint64, soloIPC []float64) (float64, RunResult, error) {
	if soloIPC == nil {
		soloIPC = make([]float64, len(mix))
		for i, w := range mix {
			ipc, err := SoloIPC(cfg, w, seed)
			if err != nil {
				return 0, RunResult{}, err
			}
			soloIPC[i] = ipc
		}
	}
	res, err := Run(cfg, mix, refresh, seed)
	if err != nil {
		return 0, RunResult{}, err
	}
	shared := make([]float64, len(res.Cores))
	for i, c := range res.Cores {
		shared[i] = c.IPC
	}
	return WeightedSpeedupFrom(shared, soloIPC), res, nil
}

// Deterministic seed helper for experiment reproducibility.
func RunSeed(parts ...uint64) uint64 { return rng.Key(parts...) }
