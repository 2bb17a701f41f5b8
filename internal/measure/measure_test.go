package measure

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

func smallScenario(t *testing.T, dests int) *topo.Scenario {
	t.Helper()
	cfg := topo.DefaultGenConfig()
	cfg.Destinations = dests
	cfg.Seed = 7
	return topo.Generate(cfg)
}

func TestCampaignShape(t *testing.T) {
	sc := smallScenario(t, 40)
	rounds := 0
	camp, err := NewCampaign(netsim.NewTransport(sc.Net), Config{
		Dests:   sc.Dests,
		Rounds:  3,
		Workers: 4,
		RoundStart: func(r int) {
			if r != rounds {
				t.Errorf("RoundStart(%d), want %d", r, rounds)
			}
			rounds++
			sc.RoundStart(r)
		},
		PortSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 3 || len(res.Rounds) != 3 {
		t.Fatalf("rounds = %d / %d", rounds, len(res.Rounds))
	}
	for r, pairs := range res.Rounds {
		if len(pairs) != len(sc.Dests) {
			t.Fatalf("round %d: %d pairs, want %d", r, len(pairs), len(sc.Dests))
		}
		for i, p := range pairs {
			if p.Dest != sc.Dests[i] {
				t.Fatalf("round %d pair %d: dest %v, want %v", r, i, p.Dest, sc.Dests[i])
			}
			if p.Paris == nil || p.Classic == nil {
				t.Fatalf("round %d pair %d: missing trace", r, i)
			}
			if p.Round != r {
				t.Fatalf("pair round = %d, want %d", p.Round, r)
			}
		}
	}
}

func TestCampaignEmptyDestsRejected(t *testing.T) {
	sc := smallScenario(t, 10)
	if _, err := NewCampaign(netsim.NewTransport(sc.Net), Config{}); err == nil {
		t.Error("empty destination list accepted")
	}
}

func TestCampaignStopRules(t *testing.T) {
	sc := smallScenario(t, 20)
	camp, err := NewCampaign(netsim.NewTransport(sc.Net), Config{
		Dests: sc.Dests, Rounds: 1, Workers: 2, PortSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Rounds[0] {
		// Paper rules: min TTL 2, max 39 hops.
		if len(p.Paris.Hops) > 0 && p.Paris.Hops[0].TTL != 2 {
			t.Errorf("paris first TTL = %d, want 2", p.Paris.Hops[0].TTL)
		}
		if len(p.Paris.Hops) > 38 {
			t.Errorf("trace extended past 39 hops: %d", len(p.Paris.Hops))
		}
	}
}

// TestMeasurePairClassifiesPerFlowLoop is Fig. 3 through the paper's pair
// measurement: the classic half straddles the unequal branches for some
// source ports and loops on E, a per-flow-balancing artifact; Paris never
// loops.
func TestMeasurePairClassifiesPerFlowLoop(t *testing.T) {
	fig := topo.BuildFigure3(1)
	p := NewProber(netsim.NewTransport(fig.Net), ProbeConfig{})
	var hints PathHints

	// Every round is a new classic process with a new source port; repeat
	// until the loop shows, then check the classification.
	found := false
	for round := 0; round < 96 && !found; round++ {
		pair, err := p.MeasurePair(fig.Dest.Addr, round, &hints)
		if err != nil {
			t.Fatal(err)
		}
		pc := anomaly.ClassifyPair(pair.Classic, pair.Paris)
		if loops := anomaly.FindLoops(pair.Paris); len(loops) != 0 || pc.ParisOnly != 0 {
			t.Fatalf("paris saw loops: %+v", loops)
		}
		for j, l := range pc.Loops {
			found = true
			if pc.LoopCauses[j] != anomaly.CausePerFlowLB {
				t.Errorf("loop cause = %v, want per-flow-lb", pc.LoopCauses[j])
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

// TestMeasurePairZeroTTLSeenByBoth is Fig. 4 through the pair measurement:
// zero-TTL forwarding is a router bug, not a flow artifact, so Paris sees the
// loop too, on the same address.
func TestMeasurePairZeroTTLSeenByBoth(t *testing.T) {
	fig := topo.BuildFigure4(1)
	var hints PathHints
	pair, err := NewProber(netsim.NewTransport(fig.Net), ProbeConfig{}).MeasurePair(fig.Dest.Addr, 0, &hints)
	if err != nil {
		t.Fatal(err)
	}
	pc := anomaly.ClassifyPair(pair.Classic, pair.Paris)
	if len(pc.Loops) != 1 || pc.LoopCauses[0] != anomaly.CauseZeroTTL {
		t.Fatalf("classic loops = %+v causes = %v", pc.Loops, pc.LoopCauses)
	}
	if loops := anomaly.FindLoops(pair.Paris); len(loops) != 1 || pc.ParisOnly != 0 {
		t.Fatalf("paris loops = %+v, %d of them paris-only", loops, pc.ParisOnly)
	}
}

func TestPortForRange(t *testing.T) {
	for i := 0; i < 500; i++ {
		d := netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)})
		p := portFor(42, d, 0x517e)
		if p < 10000 || p >= 60000 {
			t.Fatalf("port %d outside the paper's [10000, 60000) range", p)
		}
	}
	// Stable per destination.
	d := netip.AddrFrom4([4]byte{172, 16, 0, 1})
	if portFor(42, d, 1) != portFor(42, d, 1) {
		t.Error("portFor not deterministic")
	}
	if portFor(42, d, 1) == portFor(43, d, 1) &&
		portFor(42, d, 2) == portFor(43, d, 2) {
		t.Error("portFor ignores the seed")
	}
}

// synthetic route helpers for Analyze tests
func aAddr(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}) }

func synthRoute(dest netip.Addr, spec ...int) *tracer.Route {
	rt := &tracer.Route{Dest: dest}
	for i, s := range spec {
		h := tracer.Hop{TTL: i + 1, ProbeTTL: 1, Kind: tracer.KindTimeExceeded, RespTTL: 250 - s}
		if s < 0 {
			h = tracer.Hop{TTL: i + 1, Kind: tracer.KindNone, ProbeTTL: -1}
		} else {
			h.Addr = aAddr(s)
			h.IPID = uint16(i)
		}
		rt.Hops = append(rt.Hops, h)
	}
	return rt
}

func TestAnalyzeSyntheticCounts(t *testing.T) {
	d1 := netip.AddrFrom4([4]byte{172, 16, 0, 1})
	d2 := netip.AddrFrom4([4]byte{172, 16, 0, 2})
	cfg := Config{Dests: []netip.Addr{d1, d2}}.withDefaults()
	res := &Results{Config: cfg, Rounds: [][]Pair{
		{
			// d1: classic loop absent from paris -> per-flow.
			{Dest: d1, Round: 0, Classic: synthRoute(d1, 1, 2, 2, 3), Paris: synthRoute(d1, 1, 2, 4, 3)},
			// d2: clean.
			{Dest: d2, Round: 0, Classic: synthRoute(d2, 1, 5, 6), Paris: synthRoute(d2, 1, 5, 6)},
		},
		{
			// Round 1: d1 loops again (same signature); d2 has a cycle.
			{Dest: d1, Round: 1, Classic: synthRoute(d1, 1, 2, 2, 3), Paris: synthRoute(d1, 1, 2, 4, 3)},
			{Dest: d2, Round: 1, Classic: synthRoute(d2, 1, 5, 6, 5, 7), Paris: synthRoute(d2, 1, 5, 6, 8, 7)},
		},
	}}
	s := Analyze(res)
	if s.Routes != 4 || s.Rounds != 2 || s.Dests != 2 {
		t.Fatalf("bookkeeping: %+v", s)
	}
	if s.Loops.Instances != 2 || s.Loops.RoutesWithLoop != 2 {
		t.Errorf("loops: %+v", s.Loops)
	}
	if s.Loops.Signatures != 1 || s.Loops.OneRoundSignatures != 0 {
		t.Errorf("loop signatures: %+v", s.Loops)
	}
	if s.Loops.DestsWithLoop != 1 {
		t.Errorf("loop dests = %d", s.Loops.DestsWithLoop)
	}
	if got := s.Loops.ByCause[anomaly.CausePerFlowLB]; got != 2 {
		t.Errorf("per-flow loops = %d, want 2", got)
	}
	if s.Cycles.Instances != 1 || s.Cycles.Signatures != 1 || s.Cycles.OneRoundSignatures != 1 {
		t.Errorf("cycles: %+v", s.Cycles)
	}
	if s.Cycles.MeanRoundsPerSignature != 1 {
		t.Errorf("mean rounds per cycle signature = %v", s.Cycles.MeanRoundsPerSignature)
	}
}

func TestAnalyzeMidStars(t *testing.T) {
	d := netip.AddrFrom4([4]byte{172, 16, 0, 1})
	cfg := Config{Dests: []netip.Addr{d}}.withDefaults()
	res := &Results{Config: cfg, Rounds: [][]Pair{{
		{Dest: d, Round: 0,
			Classic: synthRoute(d, 1, -1, 3, -1, -1), // one mid star, two trailing
			Paris:   synthRoute(d, 1, 3)},
	}}}
	s := Analyze(res)
	if s.MidStars != 1 {
		t.Errorf("MidStars = %d, want 1 (trailing stars excluded)", s.MidStars)
	}
}

func TestAnalyzeDiamonds(t *testing.T) {
	d := netip.AddrFrom4([4]byte{172, 16, 0, 1})
	cfg := Config{Dests: []netip.Addr{d}}.withDefaults()
	res := &Results{Config: cfg, Rounds: [][]Pair{
		{{Dest: d, Round: 0, Classic: synthRoute(d, 1, 2, 4), Paris: synthRoute(d, 1, 2, 4)}},
		{{Dest: d, Round: 1, Classic: synthRoute(d, 1, 3, 4), Paris: synthRoute(d, 1, 2, 4)}},
	}}
	s := Analyze(res)
	if s.Diamonds.Total != 1 || s.Diamonds.DestsWithDiamond != 1 {
		t.Fatalf("diamonds: %+v", s.Diamonds)
	}
	if s.Diamonds.PerFlow != 1 {
		t.Errorf("per-flow diamonds = %d, want 1 (absent from paris graph)", s.Diamonds.PerFlow)
	}
	if s.Diamonds.ParisTotal != 0 {
		t.Errorf("paris diamonds = %d", s.Diamonds.ParisTotal)
	}
}

func TestReportRendering(t *testing.T) {
	sc := smallScenario(t, 30)
	camp, err := NewCampaign(netsim.NewTransport(sc.Net), Config{
		Dests: sc.Dests, Rounds: 2, Workers: 4, RoundStart: sc.RoundStart, PortSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := Analyze(res)
	var buf bytes.Buffer
	WriteReport(&buf, s, sc.AS)
	out := buf.String()
	for _, want := range []string{
		"loops: routes with >=1 loop",
		"cycles: caused by forwarding loops",
		"diamonds: destinations affected",
		"AS coverage",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	table := rows(s)
	if len(table) != 21 {
		t.Errorf("rows = %d entries, want 21 (every quoted statistic)", len(table))
	}
	for _, r := range table {
		if r.paper == 0 {
			t.Errorf("row %q has no paper value", r.name)
		}
	}
}

func TestCausePct(t *testing.T) {
	m := map[anomaly.Cause]int{anomaly.CausePerFlowLB: 3, anomaly.CauseZeroTTL: 1}
	if got := CausePct(m, anomaly.CausePerFlowLB); got != 75 {
		t.Errorf("CausePct = %v, want 75", got)
	}
	if got := CausePct(nil, anomaly.CauseZeroTTL); got != 0 {
		t.Errorf("empty map: %v", got)
	}
}

func TestCampaignDuplicateDestsRejected(t *testing.T) {
	sc := smallScenario(t, 10)
	dests := append(append([]netip.Addr{}, sc.Dests...), sc.Dests[0])
	if _, err := NewCampaign(netsim.NewTransport(sc.Net), Config{Dests: dests}); err == nil {
		t.Error("duplicate destination accepted: per-destination statistics assume one owner per address")
	}
}
