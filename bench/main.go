// Command bench is the repository's benchmark: seven workloads over the
// study campaign, the live mux, pcap replay and the daemon, each measured
// end to end (untraced) and layer by layer (traced) from outside the
// program, through the same public constructors the three binaries call.
//
// One run of one workload — the form BENCHMARK.json's driver uses:
//
//	go run -C bench . --workload study_static --seed 42 --seconds 8 --trace 0
//
// prints the workload's checks and metrics and, as its last line, one JSON
// object {correct, attempted, failed, metrics}: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1.
//
// Every workload, each in a fresh process (the form a person uses):
//
//	go run -C bench . [-runs N] [-only name] [-seed N] [-seconds S] [-json out.json]
//	go run -C bench . -compare A.json B.json
//
// See README.md in this directory for the metric and workload tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process and end with the result JSON line (empty: run every workload, each in its own process)")
		seed     = flag.Int64("seed", 42, "derives the topology seed, the port seed and the loss-hash salt")
		seconds  = flag.Float64("seconds", 0, "measured phase length in seconds (0: BENCHMARK.json run_seconds)")
		trace    = flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
		procs    = flag.Int("procs", 0, "GOMAXPROCS and probing workers (0: min(nproc, 4))")
		runs     = flag.Int("runs", 1, "untraced repetitions of each workload (all-workloads form)")
		only     = flag.String("only", "", "all-workloads form: run just this workload (still in its own processes, with -runs and -json)")
		jsonOut  = flag.String("json", "", "write the machine-readable result of the all-workloads form to this file")
		compare  = flag.Bool("compare", false, "compare two -json result files: bench -compare A.json B.json")
		dests    = flag.Int("dests", 0, "override every workload's destination count (toy sizes)")
		rounds   = flag.Int("rounds", 0, "measure exactly this many rounds instead of -seconds")
		flips    = flag.Bool("flips", true, "mid-trace path flips in the study topology, as anomaly-study -flips")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON lines")
	)
	flag.Parse()

	root, spec, err := findBenchmarkJSON()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare A.json B.json"))
		}
		worse, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *procs <= 0 {
		*procs = min(runtime.NumCPU(), 4)
	}

	if *workload == "" {
		err := runAll(spec, allOptions{
			only: *only, runs: *runs, jsonOut: *jsonOut,
			seed: *seed, seconds: *seconds, procs: *procs, dests: *dests, rounds: *rounds, flips: *flips, traceOut: *traceOut,
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	runtime.GOMAXPROCS(*procs)
	// Checkpoints and captures go to a scratch directory inside the
	// checkout: a real file system, so fsync and rename are measured as the
	// disk under the checkout performs them.
	tmp, err := os.MkdirTemp(mustMkdir(filepath.Join(root, ".bench_build", "tmp")), *workload+"-")
	if err != nil {
		fatal(err)
	}
	out, err := runWorkload(runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		procs: *procs, dests: *dests, rounds: *rounds, flips: *flips, tmp: tmp, traceOut: *traceOut, log: os.Stdout,
	})
	os.RemoveAll(tmp)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out.result(*trace != 0))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
