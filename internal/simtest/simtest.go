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
// batching, streaming, resume point or transport; and TestStaleSlots, the
// one table that holds every transport to writing each result slot whole.
// It also holds Race, the one race-detector flag the allocation pins read.
// Only _test.go files may import this package; TestSurface in the module
// root refuses any other importer.
package simtest

import (
	"bytes"
	"encoding/json"
	"fmt"

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
