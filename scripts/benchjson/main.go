// Command benchjson snapshots the repo's performance trajectory as a
// machine-readable JSON file (CI's perf-tracking gate):
//
//	go run ./scripts/benchjson -out BENCH_$(git rev-parse --short HEAD).json
//	go run ./scripts/benchjson -check BENCH_abc1234.json
//
// Write mode runs the root package's sweep benchmarks — the three
// RunAll trajectory points (serial reference, parallel sweep, warm-cache
// replay floor) plus the inner-loop micro benchmarks of the core
// machinery — at one iteration each and records ns/op per benchmark,
// keyed by the git revision. Committing one BENCH_<rev>.json per tentpole
// revision turns `git log --oneline BENCH_*.json` into the perf history.
//
// Check mode validates a snapshot without running anything: schema
// version, a non-empty revision, positive ns/op values, and the presence
// of all three RunAll trajectory benchmarks. CI writes a fresh snapshot
// and immediately checks it, so a benchmark that stops emitting (renamed,
// deleted, or failing to build) breaks the build rather than silently
// dropping out of the trajectory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// snapshot is the BENCH_<rev>.json schema.
type snapshot struct {
	Schema     int                `json:"schema"`
	Rev        string             `json:"rev"`
	Go         string             `json:"go"`
	Date       string             `json:"date"`
	Benchtime  string             `json:"benchtime"`
	Maxprocs   int                `json:"maxprocs,omitempty"` // GOMAXPROCS when the snapshot ran
	Benchmarks map[string]float64 `json:"benchmarks"`         // name -> ns/op
}

const schemaVersion = 1

// required are the trajectory benchmarks every snapshot must carry; the
// inner-loop micro benchmarks may come and go, these three may not.
var required = []string{
	"BenchmarkRunAllSerial",
	"BenchmarkRunAllParallel",
	"BenchmarkRunAllWarmCache",
}

// benchRegexp selects the sweep trajectory plus the inner-loop micro
// benchmarks, skipping the per-artifact figure benchmarks (those are
// subsets of RunAll and would double CI's bench wall time).
const benchRegexp = "^Benchmark(RunAll|Engine|DeviceReadRow|Hammer512ms|" +
	"StatisticalSubarray|TTFSample|SECDecode|Memsim|RowCloneScan|" +
	"DiffReadsFiltered|CouplingEval)"

// resultLine matches `go test -bench` output such as
// "BenchmarkRunAllSerial-8   1   123456789 ns/op".
var resultLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op`)

func main() {
	out := flag.String("out", "", "write a snapshot to this file")
	check := flag.String("check", "", "validate an existing snapshot file")
	bench := flag.String("bench", benchRegexp, "benchmark selection regexp")
	benchtime := flag.String("benchtime", "1x", "go test -benchtime value")
	rev := flag.String("rev", "", "revision label (default: git rev-parse --short HEAD)")
	minSpeedup := flag.Float64("min-speedup", -1,
		"minimum RunAllSerial/RunAllParallel ns ratio accepted by -check; "+
			"-1 selects a core-count-aware default (1.0 with >1 CPU, 0.85 single-core, "+
			"where parallel can only add dispatch overhead)")
	flag.Parse()

	var err error
	switch {
	case *check != "":
		err = checkFile(*check, *minSpeedup)
	case *out != "":
		err = write(*out, *bench, *benchtime, *rev)
	default:
		err = fmt.Errorf("need -out or -check")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func write(path, bench, benchtime, rev string) error {
	if rev == "" {
		raw, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
		if err != nil {
			return fmt.Errorf("git rev-parse: %w", err)
		}
		rev = strings.TrimSpace(string(raw))
	}
	// The sweep and inner-loop benchmarks all live in the root package;
	// -run ^$ skips tests so only benchmarks execute.
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", bench, "-benchtime", benchtime, ".")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go test -bench: %w", err)
	}
	benches := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		m := resultLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return fmt.Errorf("parse %q: %w", line, err)
		}
		benches[m[1]] = ns
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark results matched %q", bench)
	}
	snap := snapshot{
		Schema:     schemaVersion,
		Rev:        rev,
		Go:         runtime.Version(),
		Date:       time.Now().UTC().Format("2006-01-02"),
		Benchtime:  benchtime,
		Maxprocs:   runtime.GOMAXPROCS(0),
		Benchmarks: benches,
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchjson: wrote %s (%d benchmarks at rev %s)\n", path, len(benches), rev)
	return nil
}

func checkFile(path string, minSpeedup float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if snap.Schema != schemaVersion {
		return fmt.Errorf("%s: schema %d, want %d", path, snap.Schema, schemaVersion)
	}
	if snap.Rev == "" {
		return fmt.Errorf("%s: missing rev", path)
	}
	for name, ns := range snap.Benchmarks {
		if ns <= 0 {
			return fmt.Errorf("%s: %s has non-positive ns/op %v", path, name, ns)
		}
	}
	for _, name := range required {
		if _, ok := snap.Benchmarks[name]; !ok {
			return fmt.Errorf("%s: missing required benchmark %s", path, name)
		}
	}
	speedup := snap.Benchmarks["BenchmarkRunAllSerial"] / snap.Benchmarks["BenchmarkRunAllParallel"]
	switch {
	case minSpeedup < 0 && snap.Maxprocs == 0:
		// Pre-maxprocs snapshot: the core count it ran on is unknown, so
		// there is no defensible default threshold. Explicit -min-speedup
		// still applies.
		fmt.Printf("benchjson: %s: parallel/serial speedup %.3f (no maxprocs recorded, gate skipped)\n",
			path, speedup)
	default:
		min := minSpeedup
		if min < 0 {
			if snap.Maxprocs > 1 {
				min = 1.0
			} else {
				min = 0.85 // single core: tolerate dispatch overhead only
			}
		}
		if speedup < min {
			return fmt.Errorf("%s: RunAllParallel speedup %.3f below minimum %.2f (maxprocs %d)",
				path, speedup, min, snap.Maxprocs)
		}
		fmt.Printf("benchjson: %s: parallel/serial speedup %.3f (min %.2f at maxprocs %d)\n",
			path, speedup, min, snap.Maxprocs)
	}
	fmt.Printf("benchjson: %s ok (%d benchmarks at rev %s)\n", path, len(snap.Benchmarks), snap.Rev)
	return nil
}
