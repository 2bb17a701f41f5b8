package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	procs    int
	dests    int  // 0: the workload's own size
	rounds   int  // >0: measure exactly this many rounds, whatever seconds says
	flips    bool // mid-trace path flips in the study topology (anomaly-study -flips)
	tmp      string
	traceOut string
	log      io.Writer
}

// measured is how many rounds (ticks, replay cycles) the measured phase has:
// the workload's perSecond rate times --seconds, or the -rounds override.
// The work depends on --seconds alone, never on the clock, so that every run
// of a workload does the same work — the same checkpoint sizes, the same
// capture-buffer growths, the same routes interned — on any machine and at
// any speed of the program.
func (c runConfig) measured(perSecond float64) int {
	if c.rounds > 0 {
		return c.rounds
	}
	return max(4, int(math.Round(perSecond*c.seconds)))
}

func (c runConfig) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, format, args...)
	}
}

// destsOr returns the -dests override, or the workload's own size.
func (c runConfig) destsOr(n int) int {
	if c.dests > 0 {
		return c.dests
	}
	return n
}

func (c runConfig) path(name string) string { return filepath.Join(c.tmp, name) }

// A workload is one set of inputs and the code path they drive. perSecond is
// its measured rounds (ticks, replay cycles) per second of --seconds, sized so
// that at procs=2 on a 2-core machine the measured phase lasts about
// --seconds.
type workload struct {
	name      string
	perSecond float64
	run       func(c runConfig, rounds int) (*outcome, error)
}

// workloads lists the seven in the order the all-workloads form runs them;
// BENCHMARK.json carries each one's why-sentence.
var workloads = []workload{
	{"study_static", 7.5, func(c runConfig, n int) (*outcome, error) { return runStudy(c, studyStatic, n) }},
	{"study_dynamics", 2.75, func(c runConfig, n int) (*outcome, error) { return runStudy(c, studyDynamics, n) }},
	{"study_checkpoint", 1.6, func(c runConfig, n int) (*outcome, error) { return runStudy(c, studyCheckpoint, n) }},
	{"mux_clean", 11, func(c runConfig, n int) (*outcome, error) { return runMux(c, false, n) }},
	{"mux_lossy", 10, func(c runConfig, n int) (*outcome, error) { return runMux(c, true, n) }},
	{"replay_lossy", 0.8, runReplay},
	{"daemon_steady", 5, runDaemon},
}

// runWorkload runs the named workload and prints what it found. A traced run
// also runs the layers phase and prints the per-probe budget table.
func runWorkload(c runConfig) (*outcome, error) {
	for _, w := range workloads {
		if w.name != c.workload {
			continue
		}
		c.logf("workload %s seed=%d procs=%d seconds=%g trace=%v scratch=%s (a directory of the checkout: checkpoint and capture writes reach its file system)\n",
			w.name, c.seed, c.procs, c.seconds, c.trace, c.tmp)
		o, err := w.run(c, c.measured(w.perSecond))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if c.log != nil {
			o.print(c.log, c.trace)
		}
		return o, nil
	}
	return nil, fmt.Errorf("unknown workload %q", c.workload)
}

// studyTopology is the generated topology anomaly-study -dests 5000 probes:
// the default generator configuration at the paper's 5,000 destinations,
// mid-trace flips on unless -flips=false.
func studyTopology(c runConfig) topo.GenConfig {
	g := topo.DefaultGenConfig()
	g.Seed = c.seed
	g.Destinations = c.destsOr(5000)
	if !c.flips {
		g.FlipPerProbe = 0
	}
	return g
}

// muxTopology is the schedule-free topology the mux and replay workloads
// probe: with flips and per-packet balancing off a response is a pure
// function of the probe's bytes, so a campaign through the mux can be
// compared byte for byte with the same campaign run directly.
func muxTopology(c runConfig) topo.GenConfig {
	g := topo.DefaultGenConfig()
	g.Seed = c.seed
	g.Destinations = c.destsOr(1000)
	g.FlipPerProbe = 0
	g.PPerPacket = 0
	g.PPerPacketUnequal = 0
	return g
}

// probeCounter sums the shard networks' probe counters.
func probeCounter(nets []*netsim.Network) func() int64 {
	return func() int64 {
		var n int64
		for _, net := range nets {
			n += int64(net.ProbeCount())
		}
		return n
	}
}

// probeCounters and restoreProbeCounters are the transport cursor the
// binaries persist in checkpoints (cmd/anomaly-study, cmd/measured).
func probeCounters(nets []*netsim.Network) func() json.RawMessage {
	return func() json.RawMessage {
		counts := make([]int, len(nets))
		for i, n := range nets {
			counts[i] = n.ProbeCount()
		}
		b, err := json.Marshal(struct{ ProbeCounts []int }{counts})
		if err != nil {
			return nil
		}
		return b
	}
}

func restoreProbeCounters(nets []*netsim.Network, raw json.RawMessage) error {
	if len(raw) == 0 {
		return nil
	}
	var st struct{ ProbeCounts []int }
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("checkpoint transport state: %w", err)
	}
	if len(st.ProbeCounts) != len(nets) {
		return fmt.Errorf("checkpoint transport state covers %d shards, have %d", len(st.ProbeCounts), len(nets))
	}
	for i, n := range nets {
		n.SetProbeCount(st.ProbeCounts[i])
	}
	return nil
}

// canonicalStats is anomaly-study's -stats-json encoding: equal Stats give
// equal bytes.
func canonicalStats(s *measure.Stats) []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // Stats holds only encodable fields
	}
	return append(b, '\n')
}

// statsDiffer compares two campaigns' statistics with the round-trip times
// left out — a run through the mux measures RTTs on the wall clock, a run
// over the simulator reports synthetic ones — and names the top-level fields
// whose encodings differ. Everything else must match byte for byte, except
// that under injected loss (byCause false) the split of loops and cycles by
// cause is left out too: the classification reads the routers' IP ID
// counters, and how far a counter has moved between a probe and its re-send
// depends on when the mux got to re-send it.
func statsDiffer(a, b *measure.Stats, byCause bool) []string {
	fields := func(s *measure.Stats) map[string]json.RawMessage {
		x := *s
		x.RTT, x.Robust.Mux = measure.RTTStats{}, nil
		if !byCause {
			x.Loops.ByCause, x.Cycles.ByCause = nil, nil
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(canonicalStats(&x), &m); err != nil {
			panic(err) // canonicalStats encodes a struct: always an object
		}
		return m
	}
	fa, fb := fields(a), fields(b)
	var differ []string
	for _, name := range sortedKeys(fa) {
		if !bytes.Equal(fa[name], fb[name]) {
			differ = append(differ, name)
		}
	}
	return differ
}

// checkFaultFree asserts the campaign measured every pair of every round.
func checkFaultFree(o *outcome, s *measure.Stats, dests, rounds int) {
	o.attempted += dests * rounds
	o.failed += s.Robust.Failed + s.Robust.Skipped
	o.check("routes==dests*rounds", s.Routes == dests*rounds && s.Robust.Failed == 0 && s.Robust.Skipped == 0,
		"routes=%d dests=%d rounds=%d failed=%d skipped=%d", s.Routes, dests, rounds, s.Robust.Failed, s.Robust.Skipped)
}

// medianSetup runs setup reps times, tearing down all but the last result,
// and returns the last result with the median duration in seconds.
func medianSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 && teardown != nil {
			teardown(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// setupReps is how many times each workload sets up; setup_s is the median.
const setupReps = 7
