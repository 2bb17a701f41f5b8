package repro

import (
	"testing"

	"repro/internal/anomaly"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

func TestNewSimulatedSession(t *testing.T) {
	sess, dests := NewSimulatedSession(7, 50)
	if len(dests) != 50 {
		t.Fatalf("dests = %d", len(dests))
	}
	res, err := sess.MeasurePair(dests[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Paris.Reached() || !res.Classic.Reached() {
		t.Errorf("halts: paris=%v classic=%v", res.Paris.Halt, res.Classic.Halt)
	}
}

func TestMeasurePairClassifiesPerFlowLoop(t *testing.T) {
	fig := topo.BuildFigure3(1)
	sess := NewSession(netsim.NewTransport(fig.Net))

	// The classic half straddles the unequal branches for some source
	// ports, and every pair is a new classic process with a new one; repeat
	// until the loop shows, then check the classification.
	found := false
	for i := 0; i < 96 && !found; i++ {
		res, err := sess.MeasurePair(fig.Dest.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if loops := anomaly.FindLoops(res.Paris); len(loops) != 0 || res.ParisOnly != 0 {
			t.Fatalf("paris saw loops: %+v", loops)
		}
		for j, l := range res.Loops {
			found = true
			if res.LoopCauses[j] != anomaly.CausePerFlowLB {
				t.Errorf("loop cause = %v, want per-flow-lb", res.LoopCauses[j])
			}
			if l.Addr != fig.E {
				t.Errorf("loop on %v, want E=%v", l.Addr, fig.E)
			}
		}
	}
	if !found {
		t.Fatal("no classic loop over 96 pairs")
	}
}

func TestMeasurePairZeroTTLSeenByBoth(t *testing.T) {
	fig := topo.BuildFigure4(1)
	res, err := NewSession(netsim.NewTransport(fig.Net)).MeasurePair(fig.Dest.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Loops) != 1 || res.LoopCauses[0] != anomaly.CauseZeroTTL {
		t.Fatalf("classic loops = %+v causes = %v", res.Loops, res.LoopCauses)
	}
	// Zero-TTL loops are a router bug, not a flow artifact: Paris sees
	// them too, on the same address.
	if loops := anomaly.FindLoops(res.Paris); len(loops) != 1 || res.ParisOnly != 0 {
		t.Fatalf("paris loops = %+v, %d of them paris-only", loops, res.ParisOnly)
	}
}

func TestFacadeTracerConstructors(t *testing.T) {
	fig := topo.BuildFigure3(1)
	tp := netsim.NewTransport(fig.Net)
	for _, tr := range []tracer.Tracer{
		NewParisUDP(tp, tracer.Options{MaxTTL: 15}),
		NewClassicUDP(tp, tracer.Options{MaxTTL: 15}),
	} {
		rt, err := tr.Trace(fig.Dest.Addr)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		if !rt.Reached() {
			t.Errorf("%s: halt %v", tr.Name(), rt.Halt)
		}
	}
}

func TestRunCampaignFacade(t *testing.T) {
	cfg := topo.DefaultGenConfig()
	cfg.Destinations = 30
	sc := topo.Generate(cfg)
	stats, err := RunCampaign(netsim.NewTransport(sc.Net), measure.Config{
		Dests: sc.Dests, Rounds: 2, Workers: 4,
		RoundStart: sc.RoundStart, PortSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Routes != 60 {
		t.Errorf("routes = %d, want 60", stats.Routes)
	}
	if stats.Responses == 0 || stats.AddrsSeen == 0 {
		t.Errorf("empty stats: %+v", stats)
	}
}
