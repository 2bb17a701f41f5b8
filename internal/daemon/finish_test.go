package daemon

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/measure"
	"repro/internal/tracer"
)

// TestFinishDoesNotReadRoutesAfterFold guards the point a recycling daemon
// would give routes back at: the moment Fold returns. One run counts, at that
// point, the loops and cycles of every pair from the routes themselves; its
// twin scribbles over both routes there. Statistics, the route-change and
// anomaly events (counts included) and the final checkpoint must not differ —
// Fold copies what the accumulator keeps, and everything finish does
// afterwards works from the FoldResult.
func TestFinishDoesNotReadRoutesAfterFold(t *testing.T) {
	type key struct {
		dest  netip.Addr
		round int
	}
	garbage := tracer.Hop{TTL: -1, Addr: netip.AddrFrom4([4]byte{255, 255, 255, 255}), Kind: tracer.KindTCPSynAck, IPID: 0xdead}

	run := func(afterFold func(*measure.Pair)) (stats string, events []Event, ck []byte) {
		sc := freeTopo(t, 40, 77, 0.5)
		cfg := testConfig(sc)
		cfg.Period = 2
		cfg.Workers = 1 // one probe order, so interned IP IDs — and the checkpoint — repeat
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "finish.ck")
		d := mustNew(t, cfg)
		d.events = newEventHub(4096) // room for every event of the run
		d.afterFold = afterFold
		tick(d, 30)
		sj, err := json.Marshal(d.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		replay, _, cancel := d.events.subscribe(0)
		cancel()
		for _, e := range replay {
			if e.Type == EventRouteChange || e.Type == EventAnomaly {
				e.Seq = 0 // supervisors publish in whatever order they are scheduled
				events = append(events, e)
			}
		}
		sort.Slice(events, func(i, j int) bool {
			a, b := events[i], events[j]
			if a.Round != b.Round {
				return a.Round < b.Round
			}
			if a.Dest != b.Dest {
				return a.Dest.Less(b.Dest)
			}
			return a.Type < b.Type
		})
		if err := d.Stop(); err != nil {
			t.Fatal(err)
		}
		ck, err = os.ReadFile(cfg.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		return string(sj), events, ck
	}

	// afterFold runs under the daemon lock, so the map needs no other.
	loops, cycles := map[key]int{}, map[key]int{}
	wantStats, wantEvents, wantCk := run(func(p *measure.Pair) {
		k := key{p.Dest, p.Round}
		loops[k] = len(anomaly.FindLoops(p.Paris)) + len(anomaly.FindLoops(p.Classic))
		cycles[k] = len(anomaly.FindCycles(p.Paris)) + len(anomaly.FindCycles(p.Classic))
	})
	changes, anomalous := 0, 0
	for _, e := range wantEvents {
		k := key{e.Dest, int(e.Round)}
		if e.Loops != loops[k] || e.Cycles != cycles[k] {
			t.Errorf("%s event for %v round %d carries %d loops, %d cycles; the routes had %d, %d",
				e.Type, e.Dest, e.Round, e.Loops, e.Cycles, loops[k], cycles[k])
		}
		if e.Type == EventRouteChange {
			changes++
		} else {
			anomalous++
		}
	}
	if changes == 0 || anomalous == 0 {
		t.Fatalf("%d route changes, %d of them anomalous: the event path was not exercised", changes, anomalous)
	}

	gotStats, gotEvents, gotCk := run(func(p *measure.Pair) {
		for _, rt := range []*tracer.Route{p.Paris, p.Classic} {
			rt.Hops = rt.Hops[:cap(rt.Hops)]
			for i := range rt.Hops {
				rt.Hops[i] = garbage
			}
			rt.Dest, rt.Source, rt.Halt = garbage.Addr, garbage.Addr, tracer.HaltStars
		}
	})
	if gotStats != wantStats {
		t.Errorf("statistics differ once routes are scribbled over after Fold:\ngot:  %s\nwant: %s", gotStats, wantStats)
	}
	if len(gotEvents) != len(wantEvents) {
		t.Fatalf("%d route-change/anomaly events, want %d", len(gotEvents), len(wantEvents))
	}
	for i := range gotEvents {
		if gotEvents[i] != wantEvents[i] {
			t.Errorf("event %d: got %+v, want %+v", i, gotEvents[i], wantEvents[i])
		}
	}
	if !bytes.Equal(gotCk, wantCk) {
		t.Errorf("final checkpoint (%d bytes) differs from the untouched run's (%d bytes)", len(gotCk), len(wantCk))
	}
}
