package measure

import (
	"testing"

	"repro/internal/anomaly"
	"repro/internal/netsim"
	"repro/internal/simtest"
	"repro/internal/topo"
)

// TestHeadlineDirectionalClaims is the regression gate on the paper's
// central results: run a small calibrated campaign and assert the
// comparative findings (not the absolute values, which need scale):
//
//  1. classic traceroute sees loops on a few percent of routes; Paris sees
//     almost none of those (per-flow LB dominates the causes);
//  2. per-flow load balancing is the leading loop cause by a wide margin;
//  3. classic per-destination graphs contain diamonds toward most
//     destinations; the per-flow share vanishes from Paris graphs.
func TestHeadlineDirectionalClaims(t *testing.T) {
	cfg := simtest.Default(400)
	sc := topo.Generate(cfg)
	res := mustRun(t, newCampaign(t, netsim.NewTransport(sc.Net), Config{
		Dests:      sc.Dests,
		Rounds:     10,
		Workers:    16,
		RoundStart: sc.RoundStart,
		PortSeed:   cfg.Seed,
	}))
	s := res.Stats

	// (1) Loop prevalence in the paper's regime: a few percent of classic
	// routes, an order of magnitude fewer for Paris.
	loopPct := pct(s.Loops.RoutesWithLoop, s.Routes)
	if loopPct < 1 || loopPct > 15 {
		t.Errorf("classic loop route share %.2f%% outside the calibrated regime", loopPct)
	}
	parisLoops := 0
	classicLoops := s.Loops.Instances
	for _, pairs := range res.Rounds {
		for _, p := range pairs {
			parisLoops += len(anomaly.FindLoops(p.Paris))
		}
	}
	if classicLoops == 0 {
		t.Fatal("no classic loops at all; campaign degenerate")
	}
	if float64(parisLoops) > 0.35*float64(classicLoops) {
		t.Errorf("paris saw %d loops vs classic %d; constant flow identifiers must remove most",
			parisLoops, classicLoops)
	}

	// (2) Cause ordering: per-flow LB dominates.
	perFlow := s.Loops.ByCause[anomaly.CausePerFlowLB]
	for cause, n := range s.Loops.ByCause {
		if cause == anomaly.CausePerFlowLB {
			continue
		}
		if n >= perFlow {
			t.Errorf("cause %v (%d) rivals per-flow LB (%d)", cause, n, perFlow)
		}
	}
	if share := CausePct(s.Loops.ByCause, anomaly.CausePerFlowLB); share < 60 {
		t.Errorf("per-flow loop share %.1f%%, want the dominant (~87%%) cause", share)
	}

	// (3) Diamonds: most destinations affected; Paris graphs far cleaner.
	dPct := pct(s.Diamonds.DestsWithDiamond, s.Dests)
	if dPct < 50 {
		t.Errorf("diamond destination share %.1f%%, want the majority (paper: 79%%)", dPct)
	}
	if s.Diamonds.Total == 0 {
		t.Fatal("no diamonds at all")
	}
	if float64(s.Diamonds.ParisTotal) > 0.6*float64(s.Diamonds.Total) {
		t.Errorf("paris graphs kept %d of %d diamonds; per-flow share must vanish",
			s.Diamonds.ParisTotal, s.Diamonds.Total)
	}
}
