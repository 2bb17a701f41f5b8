package daemon

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// TestFinishDoesNotReadRoutesAfterFold guards the point the daemon gives
// routes back at: the moment Fold returns, after which the worker recycles
// them into its Prober for its next traces. One run counts, at that point,
// the loops and cycles of every pair from the routes themselves; its twin
// scribbles over both routes there. Statistics, the route-change and anomaly
// events (counts included) and the final checkpoint must not differ — Fold
// copies what the accumulator keeps, and everything finish does afterwards
// works from the FoldResult.
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
				e.Seq = 0 // workers publish in whatever order they are scheduled
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
		stop(t, d)
		ck = readFile(t, cfg.CheckpointPath)
		return string(sj), events, ck
	}

	// afterFold runs under the one shard's lock, so the map needs no other.
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

// TestPerPacketDiamondWaitsItsPeriod puts one destination behind a
// per-packet balancer (Fig. 1's L over two two-router branches), so its
// Paris route is one of four, drawn afresh every round. A draw is load
// balancing, not a path change: only a route the destination has never
// shown re-arms it for the next round and publishes a route-change event,
// and once it has shown all four it is probed once per Period. The daemon
// is then killed and recovered from its checkpoint, and a known route must
// not re-arm it there either.
func TestPerPacketDiamondWaitsItsPeriod(t *testing.T) {
	const period, before, after = 2, 20, 12
	fig := topo.BuildFigure1(1, netsim.PerPacket)
	ckPath := filepath.Join(t.TempDir(), "perpacket.ck")

	// Every fold, in order, across both lives; afterFold runs under the
	// destination's shard lock and one destination is never in flight twice.
	var rounds []int64
	var seen []*tracer.Route
	var isNew []bool
	start := func() *Daemon {
		d := mustNew(t, Config{
			Dests:          []netip.Addr{fig.Dest.Addr},
			Transport:      netsim.NewTransport(fig.Net),
			RoundStart:     fig.Net.SetVirtualRound,
			Probe:          measure.ProbeConfig{PortSeed: 42, Batch: true},
			Period:         period,
			Workers:        2,
			Watchdog:       neverStall,
			Sleep:          noSleep,
			CheckpointPath: ckPath,
		})
		d.afterFold = func(p *measure.Pair) {
			known := slices.ContainsFunc(seen, p.Paris.Equal)
			if !known {
				seen = append(seen, p.Paris.Clone())
			}
			rounds = append(rounds, int64(p.Round))
			isNew = append(isNew, !known)
		}
		return d
	}
	routeChanges := func(d *Daemon) (n int) {
		replay, _, cancel := d.events.subscribe(0)
		cancel()
		for _, e := range replay {
			if e.Type == EventRouteChange {
				n++
			}
		}
		return n
	}

	a := start()
	defer a.Stop() // its idle pool, once the test is over
	tick(a, before)
	// Killed: no Stop, no drain — the checkpoint is everything.
	folded := len(rounds)
	if len(seen) != 4 {
		t.Fatalf("the diamond showed %d Paris routes in %d rounds, want all 4 before the kill", len(seen), before)
	}
	if got, want := routeChanges(a), len(seen)-1; got != want {
		t.Errorf("%d route-change events for %d routes new after the first", got, want)
	}
	last := 0
	for i, n := range isNew {
		if n {
			last = i
		}
	}
	if folded-1-last < 4 {
		t.Fatalf("only %d folds after the last new route; the steady cadence is not exercised", folded-1-last)
	}

	b := start()
	defer b.Stop()
	if ok, at := b.Recovered(); !ok || at != before {
		t.Fatalf("recovered=%v at=%d, want true at %d", ok, at, before)
	}
	tick(b, after)
	if got := routeChanges(b); got != 0 || slices.Contains(isNew[folded:], true) {
		t.Errorf("after recovery: %d route-change events (new routes: %v), want none", got, isNew[folded:])
	}
	if len(rounds) == folded {
		t.Fatal("nothing was probed after recovery")
	}

	// The whole cadence: a fold showing a new route (not the first) is
	// followed by a dispatch next round, any other by one Period later,
	// across the restart too.
	for i := 1; i < len(rounds); i++ {
		want := int64(period)
		if i > 1 && isNew[i-1] {
			want = 1
		}
		if gap := rounds[i] - rounds[i-1]; gap != want {
			t.Errorf("fold %d at round %d, %d rounds after the previous (new route: %v); want %d",
				i, rounds[i], gap, isNew[i-1], want)
		}
	}
}

// BenchmarkDaemonPeriod ticks a daemon at period 5 over the topology the
// binaries ship (simtest.Default: per-packet diamonds, flips), with room
// in the queue for every destination, after four periods of warm-up in
// which first sights settle. due/tick is the pairs dispatched per tick,
// 100 at 500 destinations if every destination waited its Period; a
// destination re-armed for the next round adds one. ms/period is the wall
// time of Period ticks, one pass over every destination.
func BenchmarkDaemonPeriod(b *testing.B) {
	const dests, period = 500, 5
	sc := topo.Generate(simtest.Default(dests))
	cfg := testConfig(sc)
	cfg.Period, cfg.Workers, cfg.QueueCap = period, 2, dests
	d, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Stop()
	tick(d, 4*period)
	before := d.Snapshot().Robust.Probed
	b.ResetTimer()
	tick(d, b.N)
	b.StopTimer()
	b.ReportMetric(float64(d.Snapshot().Robust.Probed-before)/float64(b.N), "due/tick")
	b.ReportMetric(b.Elapsed().Seconds()*1e3*period/float64(b.N), "ms/period")
}
