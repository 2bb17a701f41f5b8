package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// allOptions are the settings of the all-workloads form.
type allOptions struct {
	only     string
	runs     int
	jsonOut  string
	seed     int64
	seconds  float64
	procs    int
	dests    int
	rounds   int
	flips    bool
	traceOut string
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Procs     int                        `json:"procs"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	// Runs are the untraced runs (end-to-end metrics); Traced is the one
	// traced run (per-layer metrics).
	Runs   []resultLine `json:"runs"`
	Traced *resultLine  `json:"traced,omitempty"`
}

// runAll runs every workload BENCHMARK.json lists, one after another, each
// run in a process of its own so that heap state and peak RSS belong to that
// run alone: runs untraced runs for the end-to-end metrics, then one traced
// run for the per-layer metrics and the budget table.
func runAll(spec *benchSpec, opt allOptions) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	out := resultFile{Procs: opt.procs, Seed: opt.seed, Seconds: opt.seconds, Workloads: map[string]*workloadResult{}}
	failed := false
	for _, w := range spec.Workloads {
		if opt.only != "" && w.Name != opt.only {
			continue
		}
		wr := &workloadResult{}
		out.Workloads[w.Name] = wr
		for i := 0; i < opt.runs; i++ {
			line, err := runChild(exe, opt, w.Name, false)
			if err != nil {
				return err
			}
			wr.Runs = append(wr.Runs, line)
			failed = failed || !line.Correct
		}
		line, err := runChild(exe, opt, w.Name, true)
		if err != nil {
			return err
		}
		wr.Traced = &line
		failed = failed || !line.Correct
	}
	if opt.only != "" && len(out.Workloads) == 0 {
		return fmt.Errorf("no workload named %q in BENCHMARK.json", opt.only)
	}
	if opt.jsonOut != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opt.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("a workload failed its correctness checks")
	}
	return nil
}

// runChild runs one workload once in a child process, passes its report
// through, and decodes the result line it ends with.
func runChild(exe string, opt allOptions, workload string, traced bool) (resultLine, error) {
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"-procs", strconv.Itoa(opt.procs),
		"-dests", strconv.Itoa(opt.dests),
		"-rounds", strconv.Itoa(opt.rounds),
		"-flips=" + strconv.FormatBool(opt.flips),
		"-trace", "0",
	}
	if traced {
		args[len(args)-1] = "1"
		if opt.traceOut != "" {
			args = append(args, "-trace-out", opt.traceOut+"."+workload)
		}
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return resultLine{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return resultLine{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return line, nil
}
