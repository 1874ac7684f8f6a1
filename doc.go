// Package columndisturb is a simulation-based reproduction of
// "ColumnDisturb: Understanding Column-based Read Disturbance in Real DRAM
// Chips and Implications for Future Systems" (MICRO 2025).
//
// ColumnDisturb is a read-disturbance phenomenon in which repeatedly
// opening (hammering) or keeping open (pressing) a DRAM row disturbs cells
// through the *bitlines* the row drives: every row sharing those bitlines —
// up to three consecutive subarrays, thousands of rows — can experience
// bitflips, in stark contrast to RowHammer and RowPress, which affect only
// the aggressor's immediate neighbours.
//
// The original work characterizes 216 real DDR4 and 4 HBM2 chips on an
// FPGA-based testing infrastructure. This library substitutes calibrated
// device-level simulation for the hardware (see DESIGN.md): a cell-explicit
// DRAM model driven by command programs, a statistical population model for
// the paper's large sweeps, the characterization methodology (RowClone
// boundary reverse engineering, bisection search, guard-filtered disturb
// runs), the ECC analyses, and a cycle-accurate memory-system simulator (a
// per-bank DRAM command state machine enforcing the datasheet timing
// constraints, DESIGN.md §15) for the retention-aware refresh evaluation.
//
// The package exposes three levels of API:
//
//   - Chip: open a catalog module as a simulated device and drive it with
//     the paper's access patterns (hammer, press, idle), read back bitflips
//     and run methodology steps such as subarray boundary reverse
//     engineering and the time-to-first-bitflip search.
//   - Experiments: regenerate any table or figure of the paper through the
//     typed Request/Profile/Runner API (DESIGN.md §9). A Request names
//     experiment IDs, a configuration Profile ("small", "full", or a
//     registered scenario profile) and per-run Overrides; a Runner
//     executes it. NewLocalRunner runs in-process — every experiment's
//     shards interleave on ONE shared worker pool with optional two-level
//     result caching — and the client package (columndisturb/client) is
//     the same Runner interface speaking the /v1 HTTP API against a
//     `cdlab serve` process, with byte-identical reports. A serve process
//     is also a distributed scheduler (DESIGN.md §10): `cdlab worker
//     -connect` processes on any machine register over the /v1 worker API
//     and lease shards from it, with heartbeat-deadline requeue making
//     worker death invisible to results. Subscribe observes the per-job
//     event stream (queued/started/shard_done with cache hit/miss and the
//     executing worker, finished/failed).
//   - Analyses: the §6 mitigation arithmetic and RAIDR sweeps
//     (AnalyzeMitigations, RAIDRSweep).
//
// Experiments execute on the parallel experiment engine (internal/engine)
// under ONE contract (DESIGN.md §11): every experiment is a Plan — a list
// of independent shards with per-shard keyed RNG streams plus a
// canonical-order merge. Shards run on a bounded worker pool or fan out to
// remote worker processes through the dispatch backend, and results cache
// under (experiment, config digest, canonical shard label), so output is
// bit-identical for every worker count, every placement (local,
// distributed, mid-run worker loss), and warm or cold caches — there is no
// serial special case. Plans shard along the paper's characterization
// groups (manufacturer × temperature × pattern, module by module), and
// the dispatcher leases shards in submission order, interrupted work
// first (DESIGN.md §12).
//
// A serve process is durable (DESIGN.md §14): with LocalOptions.WALDir
// (or `cdlab serve -cache-dir`, which defaults the WAL next to the cache)
// every accepted job is journaled to a checksummed write-ahead log
// (internal/wal) before the submit ACK, and a restarted server replays
// the journal — interrupted jobs requeue under their original IDs, done
// jobs re-render cache-hot, and reconnecting clients resume event
// streams and reports byte-identically across the crash. SIGTERM drains
// gracefully and records a clean shutdown. Identical concurrent
// submissions (same experiment and config digest, without NoCache)
// coalesce into one single-flight computation with independent event
// streams and reports per submission, and `-auth-token` gates mutating
// /v1 verbs behind a bearer token while reads and metrics stay open.
//
// Everything is deterministic for a fixed seed and runs on a laptop; see
// EXPERIMENTS.md for measured-vs-paper results of every artifact.
package columndisturb
