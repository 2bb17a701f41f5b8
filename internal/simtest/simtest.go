// Package simtest is the test support the suites of measure, daemon, live
// and replay share: the scenario variants they run, as plain topo.GenConfig
// constructors; the one netsim responder a live.SimConn answers with; and
// the one comparison, over the canonical JSON anomaly-study writes with
// -stats-json.
//
// It imports only topo and netsim, so the in-package tests of measure,
// daemon, live and replay can import it without a cycle. Its own tests
// hold TestHouseInvariant, the one table that proves the house invariant:
// the statistics depend only on (seed, config), whatever the workers,
// batching, streaming, resume point or transport; TestWireIndependentOfWorkers,
// which holds netsim's probes and responses themselves, byte for byte, to
// the same at any worker count; and TestStaleSlots, the one table that
// holds every transport to writing each result slot whole.
// It also holds Goroutines, which counts one package's goroutines by ID for the
// goroutine-leak checks of the mux and the daemon.
// Only _test.go files may import this package; TestSurface in the module
// root refuses any other importer.
package simtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/netsim"
	"repro/internal/topo"
)

// Default is the topology the binaries ship, at dests destinations and seed
// 42: every gadget armed — per-packet diamonds, zero-TTL pods, loopers,
// flaps and flips.
func Default(dests int) topo.GenConfig {
	g := topo.DefaultGenConfig()
	g.Destinations = dests
	return g
}

// Dynamics is Default with the virtual-clock layer armed: per-link delay,
// background load and scheduled churn.
func Dynamics(dests int) topo.GenConfig {
	g := Default(dests)
	g.Delay, g.Load, g.Churn = 1, 0.3, 0.5
	return g
}

// Flips is Default with mid-trace path flips at 0.01 per probe, so flip
// schedules toggle inside traces.
func Flips(dests int) topo.GenConfig {
	g := Default(dests)
	g.FlipPerProbe = 0.01
	return g
}

// Gadgets is Default with zero-TTL and looper pods boosted to 0.2, so a
// small draw holds both classification rules that consult IP IDs.
func Gadgets(dests int) topo.GenConfig {
	g := Default(dests)
	g.PZeroTTLPod, g.PLooperPod = 0.2, 0.2
	return g
}

// Free is Default with neither flips nor per-packet balancing: every route
// holds still from round to round, so counters can be pinned exactly.
func Free(dests int) topo.GenConfig {
	g := Default(dests)
	g.FlipPerProbe, g.PPerPacket, g.PPerPacketUnequal = 0, 0, 0
	return g
}

// Responder answers a probe through net exactly as netsim.Transport would:
// the Respond function of a live.SimConn that replays the simulator.
func Responder(net *netsim.Network) func([]byte) ([]byte, bool) {
	return func(probe []byte) ([]byte, bool) {
		resp, _, ok := net.Exchange(probe)
		return resp, ok
	}
}

// JSON renders v as anomaly-study's -stats-json writes it: indented by two
// spaces, with a final newline.
func JSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// Diff is empty when want and got render to the same JSON, and otherwise
// names the first line where they differ.
func Diff(want, got any) string {
	w, g := JSON(want), JSON(got)
	if bytes.Equal(w, g) {
		return ""
	}
	wl, gl := bytes.Split(w, []byte("\n")), bytes.Split(g, []byte("\n"))
	line := func(ls [][]byte, i int) []byte {
		if i < len(ls) {
			return bytes.TrimSpace(ls[i])
		}
		return []byte("(end)")
	}
	// The renderings differ, so some line does, or one ends first.
	for i := 0; ; i++ {
		if i >= len(wl) || i >= len(gl) || !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d: want %s, got %s", i+1, line(wl, i), line(gl, i))
		}
	}
}

// Goroutines returns the goroutines, other than the caller, with a frame in
// package pkg (an import path) — what pkg's code can have started or left
// blocked — by ID, so a check against an earlier call counts nothing the
// rest of the process starts or winds down, and no goroutine that was
// already there.
func Goroutines(pkg string) map[string]bool {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	out := make(map[string]bool)
	// Each stack is a "goroutine N [state]:" header and its frames, the
	// caller's first; a blank line separates them.
	for i, g := range strings.Split(string(buf[:n]), "\n\n") {
		if f := strings.Fields(g); i > 0 && len(f) > 1 && strings.Contains(g, pkg+".") {
			out[f[1]] = true
		}
	}
	return out
}

// NewGoroutines yields until at most keep goroutines of pkg not in before
// are left, which goroutines that exit reach without any sleeping, and
// returns how many are. It gives up after 1,000 counts; a caller with a
// longer window calls it again.
func NewGoroutines(pkg string, before map[string]bool, keep int) int {
	for i := 1; ; i++ {
		extra := 0
		for id := range Goroutines(pkg) {
			if !before[id] {
				extra++
			}
		}
		if extra <= keep || i == 1000 {
			return extra
		}
		runtime.Gosched()
	}
}
