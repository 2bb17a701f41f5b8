package topo

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"repro/internal/netsim"
	"repro/internal/tracer"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Destinations = 80
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Dests) != len(b.Dests) {
		t.Fatalf("dest counts differ: %d vs %d", len(a.Dests), len(b.Dests))
	}
	for i := range a.Dests {
		if a.Dests[i] != b.Dests[i] {
			t.Fatalf("dest %d differs: %v vs %v", i, a.Dests[i], b.Dests[i])
		}
	}
	if a.Truth != b.Truth {
		t.Errorf("truth differs:\n%+v\n%+v", a.Truth, b.Truth)
	}
}

func TestGenerateDestCount(t *testing.T) {
	for _, n := range []int{1, 7, 50, 333} {
		cfg := DefaultGenConfig()
		cfg.Destinations = n
		sc := Generate(cfg)
		if len(sc.Dests) != n {
			t.Errorf("Destinations=%d produced %d dests", n, len(sc.Dests))
		}
	}
}

func TestGenerateAllDestsReachableByParis(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Destinations = 120
	// Disable round dynamics side effects for a clean reachability check.
	cfg.PFlapPod = 0
	cfg.PFlapDiamondPod = 0
	cfg.PLooperPod = 0
	sc := Generate(cfg)
	tp := netsim.NewTransport(sc.Net)
	for i, d := range sc.Dests {
		tr := tracer.NewParisUDP(tp, tracer.Options{MinTTL: 2, MaxTTL: 39})
		rt, err := tr.Trace(d)
		if err != nil {
			t.Fatalf("dest %d (%v): %v", i, d, err)
		}
		if !rt.Reached() {
			t.Errorf("dest %d (%v) unreachable: halt=%v route=%v", i, d, rt.Halt, rt.Addresses())
		}
	}
}

func TestGenerateTruthConsistent(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Destinations = 400
	sc := Generate(cfg)
	tr := sc.Truth
	if tr.Pods == 0 || tr.Routers == 0 {
		t.Fatalf("empty truth: %+v", tr)
	}
	// A pod with two diamonds counts its destinations once per field.
	for name, n := range map[string]int{
		"diamond": tr.DestsBehindDiamond, "unequal": tr.DestsBehindUnequal,
		"diff2": tr.DestsBehindDiff2, "per-packet": tr.DestsBehindPerPacket,
		"nat": tr.DestsBehindNAT, "zero-ttl": tr.DestsBehindZeroTTL,
	} {
		if n > len(sc.Dests) {
			t.Errorf("%d destinations behind a %s gadget, of %d: %+v", n, name, len(sc.Dests), tr)
		}
	}
	if tr.DestsBehindUnequal+tr.DestsBehindDiff2 > tr.DestsBehindDiamond {
		t.Errorf("unequal counts exceed diamond count: %+v", tr)
	}
	// The calibrated config must actually place the common gadgets at
	// this scale.
	if tr.Diamonds == 0 || tr.DestsBehindUnequal == 0 {
		t.Errorf("no diamonds generated: %+v", tr)
	}
}

func TestGenerateASMapCoversDests(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Destinations = 60
	sc := Generate(cfg)
	for _, d := range sc.Dests {
		if _, ok := sc.AS.Lookup(d); !ok {
			t.Errorf("destination %v not in AS map", d)
		}
	}
}

func TestRoundStartTogglesFaults(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Destinations = 200
	cfg.PFlapPod = 0.5 // lots of flap pods
	cfg.FlapProbability = 1.0
	sc := Generate(cfg)
	tp := netsim.NewTransport(sc.Net)

	sc.RoundStart(0) // everything flapped
	unreach := 0
	for _, d := range sc.Dests {
		rt, err := tracer.NewParisUDP(tp, tracer.Options{MinTTL: 2, MaxTTL: 39}).Trace(d)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Halt == tracer.HaltUnreachable {
			unreach++
		}
	}
	if unreach == 0 {
		t.Fatal("no destination affected by flapped routers")
	}

	// With FlapProbability 1.0 the next round flaps everything again;
	// the fault state must persist through RoundStart.
	sc.RoundStart(1)
	unreach2 := 0
	for _, d := range sc.Dests {
		rt, err := tracer.NewParisUDP(tp, tracer.Options{MinTTL: 2, MaxTTL: 39}).Trace(d)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Halt == tracer.HaltUnreachable {
			unreach2++
		}
	}
	if unreach2 == 0 {
		t.Error("flap state lost after second RoundStart")
	}
}

func TestGeneratedRouteLengthsReasonable(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Destinations = 100
	sc := Generate(cfg)
	tp := netsim.NewTransport(sc.Net)
	for _, d := range sc.Dests[:20] {
		rt, err := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 39}).Trace(d)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(rt.Hops); n < 5 || n > 30 {
			t.Errorf("route to %v has %d hops; topology out of shape", d, n)
		}
	}
}

// TestFlipScheduleReachedDirectly: a round's flip schedules are a function
// of the round, not of the rounds a run passed through — RoundStart(r)
// called cold, as in a resumed run, publishes what rounds 0..r-1 and then r
// publish. Flaps, loopers (sequential draws, which a resume replays) and
// per-packet diamonds are off, so flips are all that changes with the round.
func TestFlipScheduleReachedDirectly(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Destinations = 120
	cfg.PFlipPod, cfg.FlipPerProbe = 0.5, 0.01
	cfg.PFlapPod, cfg.PFlapDiamondPod, cfg.PLooperPod, cfg.PPerPacket = 0, 0, 0, 0
	const r = 9
	routes := func(rounds ...int) []string {
		sc := Generate(cfg)
		for _, round := range rounds {
			sc.RoundStart(round)
		}
		tp := netsim.NewTransport(sc.Net)
		var out []string
		for _, d := range sc.Dests {
			for f := 0; f < 16; f++ {
				rt, err := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 39, SrcPort: uint16(10000 + f*97)}).Trace(d)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, fmt.Sprint(rt.Addresses()))
			}
		}
		return out
	}
	direct := routes(r)
	var rounds []int
	for i := 0; i <= r; i++ {
		rounds = append(rounds, i)
	}
	if via := routes(rounds...); !slices.Equal(direct, via) {
		t.Error("RoundStart(r) cold and after rounds 0..r-1 publish different flip schedules")
	}
	if slices.Equal(direct, routes(r-1)) {
		t.Error("rounds r-1 and r traced identically: no flip toggled, the check is degenerate")
	}
}

// TestInstallerPanicReachesCaller: a panic installing a pod's routes reaches
// the goroutine that waits for the installer, once the pods sent behind it
// (more than the hand-over buffer holds) are drained, so Generate neither
// returns with the installer running nor hangs on a dead one.
func TestInstallerPanicReachesCaller(t *testing.T) {
	pods, installed := startInstaller(nil)
	dest := []netip.Addr{netip.AddrFrom4([4]byte{172, 16, 0, 1})}
	for range 100 {
		pods <- podRoutes{dests: dest} // no router to install on
	}
	defer func() {
		if recover() == nil {
			t.Error("the installer's panic did not reach its caller")
		}
	}()
	installed()
}
