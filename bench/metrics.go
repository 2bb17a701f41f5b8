package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// benchSpec is BENCHMARK.json: the contract the driver checks the benchmark
// against, and where -compare takes each metric's direction and bound from.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findBenchmarkJSON walks up from the working directory to the checkout root
// (the directory holding BENCHMARK.json) and decodes the file.
func findBenchmarkJSON() (root string, spec *benchSpec, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", nil, err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if rerr == nil {
			spec = new(benchSpec)
			if err := json.Unmarshal(data, spec); err != nil {
				return "", nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return dir, spec, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", nil, fmt.Errorf("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}

// endToEndUnits and perLayerUnits are the metrics this program emits, with
// their units. bench_test.go pins both sets to the ones BENCHMARK.json
// declares.
var endToEndUnits = map[string]string{
	"setup_s":      "s",
	"pairs_per_s":  "1/s",
	"probes_per_s": "1/s",
	"round_ms_p50": "ms",
	"live_heap_mb": "MB",
}

var perLayerUnits = map[string]string{
	// layers phase: unit costs of public functions on recorded inputs,
	// the same for every workload.
	"packet.craft_ns":                    "ns",
	"packet.parse_ns":                    "ns",
	"packet.craft_allocs":                "count",
	"packet.parse_allocs":                "count",
	"flow.extract_hash_ns":               "ns",
	"flowkey.probe_keys_ns":              "ns",
	"flowkey.resp_key_ns":                "ns",
	"tracer.ladder_ns_per_probe":         "ns",
	"tracer.ladder_seq_ns_per_probe":     "ns",
	"tracer.trace_allocs":                "count",
	"tracer.wasted_probe_frac":           "frac",
	"netsim.exchange_ns":                 "ns",
	"netsim.exchange_allocs":             "count",
	"netsim.exchange_batch_ns_per_probe": "ns",
	"netsim.exchange_dyn_ns":             "ns",
	"netsim.steps_per_probe":             "count",
	"measure.fold_ns_per_pair":           "ns",
	"measure.fold_allocs_per_pair":       "count",
	"anomaly.detect_ns_per_route":        "ns",
	"pcap.write_ns_per_rec":              "ns",
	"pcap.read_ns_per_rec":               "ns",
	"pcap.capture_ns_per_rec":            "ns",
	"pcap.capture_ns_per_rec_contended":  "ns",
	// traced workload run: spans and counters at the seams.
	"tracer.probes_per_exchange":   "count",
	"measure.self_share":           "frac",
	"measure.merge_ms":             "ms",
	"measure.acc_state_ms":         "ms",
	"measure.acc_restore_ms":       "ms",
	"measure.ckpt_save_ms":         "ms",
	"measure.ckpt_load_ms":         "ms",
	"measure.ckpt_bytes":           "bytes",
	"measure.ckpt_round_frac":      "frac",
	"measure.recover_s":            "s",
	"daemon.tick_probe_ms_p50":     "ms",
	"daemon.tick_ckpt_ms_p50":      "ms",
	"daemon.snapshot_ms":           "ms",
	"daemon.ckpt_bytes":            "bytes",
	"daemon.due_per_tick":          "count",
	"daemon.shed":                  "count",
	"daemon.stats_ms_p50":          "ms",
	"daemon.stats_ms_p90":          "ms",
	"daemon.stats_late_ms_max":     "ms",
	"daemon.recover_s":             "s",
	"live.busy_ns_per_probe":       "ns",
	"live.conn_ns_per_probe":       "ns",
	"live.respond_ns_per_probe":    "ns",
	"live.sends_per_probe":         "count",
	"live.dgrams_per_write":        "count",
	"live.dgrams_per_read":         "count",
	"live.timeout_turns":           "count",
	"live.inflight_peak":           "count",
	"live.stars_frac":              "frac",
	"live.allocs_per_probe":        "count",
	"live.netsim_ref_ns_per_probe": "ns",
	"pcap.close_ms":                "ms",
	"pcap.bytes":                   "bytes",
	"replay.open_ns_per_rec":       "ns",
	"replay.serve_ns_per_probe":    "ns",
	"replay.leftover":              "count",
	"replay.junk":                  "count",
	"replay.fixture_s":             "s",
	"topo.generate_ms":             "ms",
	"proc.peak_rss_mb":             "MB",
	"proc.cpu_util":                "frac",
	"proc.allocs_per_pair":         "count",
	"proc.alloc_bytes_per_pair":    "bytes",
	"proc.gc_cpu_frac":             "frac",
	"proc.warmup_s":                "s",
	"proc.rounds_measured":         "count",
	"proc.round_ms_p90":            "ms",
	"trace.overhead_frac":          "frac",
	"trace.spans":                  "count",
	"budget.craft_ns":              "ns",
	"budget.exchange_ns":           "ns",
	"budget.parse_ns":              "ns",
	"budget.ladder_ns":             "ns",
	"budget.fold_ns":               "ns",
	"budget.checkpoint_ns":         "ns",
	"budget.gc_ns":                 "ns",
	"budget.unattributed_ns":       "ns",
	"budget.coverage":              "frac",
}

// check is one correctness assertion of a workload run.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is what one run of one workload produced.
type outcome struct {
	attempted, failed int
	checks            []check
	e2e               map[string]float64
	layer             map[string]float64
	// stats is the canonical encoding of the statistics a study workload
	// ended with, for comparison with cmd/anomaly-study -stats-json.
	stats []byte
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return o.failed == 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the driver's contract for the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the outcome with every end-to-end metric (untraced) or
// every per-layer metric (traced); a per-layer metric the workload does not
// exercise reads 0.
func (o *outcome) result(traced bool) resultLine {
	failed := o.failed
	if !o.correct() && failed == 0 {
		// A failed check loses every pair of the run.
		failed = o.attempted
	}
	r := resultLine{Correct: o.correct(), Attempted: max(o.attempted, 1), Failed: failed, Metrics: map[string]metricValue{}}
	units, vals := endToEndUnits, o.e2e
	if traced {
		units, vals = perLayerUnits, o.layer
	}
	for name, unit := range units {
		r.Metrics[name] = metricValue{Value: vals[name], Unit: unit}
	}
	return r
}

// print writes the run's checks and metrics in readable form.
func (o *outcome) print(w io.Writer, traced bool) {
	for _, c := range o.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  check %-34s %-6s %s\n", c.name, verdict, c.detail)
	}
	fmt.Fprintf(w, "  fail_frac %d/%d\n", o.result(traced).Failed, max(o.attempted, 1))
	units, vals := endToEndUnits, o.e2e
	if traced {
		units, vals = perLayerUnits, o.layer
	}
	for _, name := range sortedKeys(units) {
		if v, ok := vals[name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, v, units[name])
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile returns the q-quantile of vals by linear interpolation between
// order statistics; vals need not be sorted. 0 for an empty slice.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// gauges is one reading of every cumulative counter a traced run takes
// differences of: the transport wrappers' and the bench conn's counts, and
// the process-wide CPU and allocation counters.
type gauges [numGauges]float64

const (
	gCalls = iota // exchange calls, probes submitted, probes answered
	gProbes
	gAnswered
	gWrites // conn: WriteBatch calls, ReadBatch calls, datagrams out and in, empty reads
	gReads
	gWritten
	gRead
	gTimeoutTurns
	gCPU          // seconds: rusage user+system
	gAllocObjects // heap allocations, objects and bytes
	gAllocBytes
	gGCCPU    // seconds: the garbage collector's share
	gTotalCPU // seconds: everything the runtime accounts
	numGauges
)

func (g *gauges) add(o gauges) {
	for i := range g {
		g[i] += o[i]
	}
}

func (g gauges) sub(o gauges) gauges {
	for i := range g {
		g[i] -= o[i]
	}
	return g
}

var procMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readGauges reads the process-wide counters and adds the wrappers' and the
// conn's (either may be absent).
func readGauges(wrappers []*tracedTransport, conn *benchConn) gauges {
	var g gauges
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		g[gCPU] = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	samples := make([]metrics.Sample, len(procMetricNames))
	for i := range samples {
		samples[i].Name = procMetricNames[i]
	}
	metrics.Read(samples)
	g[gAllocObjects] = float64(samples[0].Value.Uint64())
	g[gAllocBytes] = float64(samples[1].Value.Uint64())
	g[gGCCPU] = samples[2].Value.Float64()
	g[gTotalCPU] = samples[3].Value.Float64()
	for _, t := range wrappers {
		g[gCalls] += float64(t.calls.Load())
		g[gProbes] += float64(t.probes.Load())
		g[gAnswered] += float64(t.answered.Load())
	}
	if conn != nil {
		g[gWrites] = float64(conn.writes.Load())
		g[gReads] = float64(conn.reads.Load())
		g[gWritten] = float64(conn.written.Load())
		g[gRead] = float64(conn.read.Load())
		g[gTimeoutTurns] = float64(conn.timeoutTurns.Load())
	}
	return g
}

// settledHeapBytes forces two collections and returns the live set the
// second one marked: what the program retains. One collection would leave
// the reading depending on when the previous cycle ran, because a sync.Pool
// (encoding/json keeps its encode buffers, checkpoint-sized, in one) gives up
// its contents only over two cycles.
func settledHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's high-water resident set. One workload runs per
// process, so it is attributable to that workload.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// procMetrics fills the proc.* per-layer metrics from the counters' change g
// over wall of measuring.
func procMetrics(o *outcome, g gauges, wall time.Duration, procs, pairs int) {
	if wall > 0 {
		o.layer["proc.cpu_util"] = g[gCPU] / (wall.Seconds() * float64(procs))
	}
	if g[gTotalCPU] > 0 {
		o.layer["proc.gc_cpu_frac"] = g[gGCCPU] / g[gTotalCPU]
	}
	if pairs > 0 {
		o.layer["proc.allocs_per_pair"] = g[gAllocObjects] / float64(pairs)
		o.layer["proc.alloc_bytes_per_pair"] = g[gAllocBytes] / float64(pairs)
	}
	o.layer["proc.peak_rss_mb"] = peakRSSMB()
}
