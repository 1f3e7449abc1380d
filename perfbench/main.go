// Command perfbench is the repository's end-to-end benchmark. It drives the
// FT-NABBIT executor, the job service and the shard router through their
// public packages, checks every output against a reference computed in
// set-up, and prints one JSON result as the last line of standard output:
//
//	perfbench --workload dag-solve --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// run wraps the layer boundaries (spec decorator, HTTP middleware, router
// transport) and reports the per-layer split instead, writing its spans as a
// Perfetto JSON file under --out. The workloads, metrics and the layer each
// metric should move are described in METRICS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// options are the command-line settings shared by every workload.
type options struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	// Out is the directory for the traced run's Perfetto file and the
	// service workload's journals (created if missing).
	Out string
	// Log receives the human-readable report lines.
	Log io.Writer
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"dag-solve":      func(o options) (*result, error) { return runDAG(o, false) },
	"dag-recover":    func(o options) (*result, error) { return runDAG(o, true) },
	"service-routed": runService,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.Workload, "workload", "dag-solve", "workload: dag-solve, dag-recover or service-routed")
	fs.Int64Var(&o.Seed, "seed", 1, "seed the inputs are built from")
	fs.IntVar(&o.Seconds, "seconds", 20, "nominal length of the timed run; sets the number of graphs or jobs")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	fs.StringVar(&o.Out, "out", ".bench_build", "directory for trace files and journals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.Trace = trace == 1
	o.Log = stdout
	runner, ok := workloads[o.Workload]
	if !ok || o.Seconds < 1 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: want --workload in %v, --seconds >= 1, --trace 0|1\n", names)
		return 2
	}
	if err := os.MkdirAll(o.Out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	host := describeHost()
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d go=%s commit=%s cpu=%q\n",
		host.NProc, host.GOMAXPROCS, host.GoVersion, host.Commit, host.CPU)
	res, err := runner(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.Workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// nproc is the number of CPUs the process may use; every workload runs with
// GOMAXPROCS equal to it and with exactly that many scheduler workers.
func nproc() int { return runtime.NumCPU() }
