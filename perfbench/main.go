// Command perfbench is the repository benchmark. It runs one named
// workload against the public entry points (columndisturb.LocalRunner, its
// Handler on a loopback listener, client.New and client.RunWorker), checks
// every report the workload produces, and prints the metrics as one JSON
// object on the last line of standard output. From the repository root:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
//
// With -trace 0 the metrics are the end-to-end ones (latency, throughput,
// CPU, memory, set-up time). With -trace 1 the run executes a fixed number
// of operations instead, records spans around the benchmark's own calls
// into each layer, times fixed-input probes of the layers' public
// functions, and prints the per-layer metrics; the spans are written to
// <out>/traces when the run ends. workloads.json documents every workload,
// metric and the layer → end-to-end mapping.
//
// The exit code is 0 only when every operation succeeded and every report
// matched its reference.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// defaultSeed is the workload seed for everyday runs; workloads.json also
// names a held-out seed for confirming a claimed gain.
const defaultSeed = 1

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// out holds the run's state (cache, WAL, probe files) and traces.
	out string
	// root is the repository checkout, hashed into the host fingerprint.
	root string
	// corruptOp, when >= 0, alters the report text of that operation
	// before it is checked; tests use it to prove mismatches are caught.
	corruptOp int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the benchmark's last output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "measured duration of an untraced run; sets the operation count of a traced run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	out := fs.String("out", ".bench_build/perfbench", "directory for run state and traces")
	root := fs.String("root", ".", "repository checkout whose sources are fingerprinted")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	return execute(ctx, options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		out: *out, root: *root, corruptOp: -1,
	}, stdout, stderr)
}

// execute runs one workload, prints its summary and returns the exit code.
func execute(ctx context.Context, opts options, stdout, stderr io.Writer) int {
	sum, err := runWorkload(ctx, workloads[opts.workload], opts, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct || sum.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
