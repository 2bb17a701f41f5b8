package measure

import (
	"reflect"
	"testing"

	"repro/internal/topo"
)

// TestCampaignShardInvariance is the partitioning analogue of the worker-
// invariance gate: a topology measured as one network must yield
// byte-identical anomaly statistics when partitioned across four
// independent shards. Per the paper, each destination's anomaly behaviour
// is determined by its own pod's gadgets, so distributing pods across
// shards must not move a single number in the Section 4 tables.
func TestCampaignShardInvariance(t *testing.T) {
	cfg := studyConfig(160)
	one := runStats(t, cfg, 32, false)
	cfg.Shards = 4
	four := runStats(t, cfg, 32, false)

	if one.Loops.Instances == 0 || one.Diamonds.Total == 0 {
		t.Fatal("campaign saw no loops or no diamonds; invariance check degenerate")
	}
	if !reflect.DeepEqual(one, four) {
		t.Errorf("campaign statistics differ between Shards=1 and Shards=4:\none:  %+v\nfour: %+v", one, four)
	}
}

// TestCampaignShardRoutesIdentical drills below the aggregates: the
// per-destination measured routes must match hop for hop between the
// single-network and the sharded engine, and also when the sharded engine
// runs with fewer workers than shards (whole-shard round-robin fallback).
func TestCampaignShardRoutesIdentical(t *testing.T) {
	run := func(shards, workers int) *Results {
		cfg := studyConfig(80)
		cfg.Shards = shards
		sc := topo.Generate(cfg)
		camp, err := NewCampaign(sc.Transport(), Config{
			Dests:      sc.Dests,
			Rounds:     2,
			Workers:    workers,
			RoundStart: sc.RoundStart,
			PortSeed:   7,
			ShardOf:    sc.ShardOf,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(1, 8)
	for _, workers := range []int{8, 2} { // 2 < 4 shards: fallback path
		b := run(4, workers)
		for r := range a.Rounds {
			for i := range a.Rounds[r] {
				pa, pb := a.Rounds[r][i], b.Rounds[r][i]
				if !sameAddrs(pa.Paris.Addresses(), pb.Paris.Addresses()) ||
					!sameAddrs(pa.Classic.Addresses(), pb.Classic.Addresses()) {
					t.Fatalf("workers=%d round %d dest %v: routes differ between Shards=1 and Shards=4", workers, r, pa.Dest)
				}
			}
		}
	}
}

// TestWorkerPlanShardAffine checks the scheduling invariant directly: with
// at least as many workers as shards, no worker's slice ever spans two
// shards, every destination is planned exactly once, and empty workers are
// tolerated.
func TestWorkerPlanShardAffine(t *testing.T) {
	cfg := studyConfig(160)
	cfg.Shards = 4
	sc := topo.Generate(cfg)
	c, err := NewCampaign(sc.Transport(), Config{
		Dests: sc.Dests, Workers: 32, ShardOf: sc.ShardOf, PortSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for w, idxs := range c.plan {
		shard := -1
		for _, i := range idxs {
			if seen[i] {
				t.Fatalf("destination index %d planned twice", i)
			}
			seen[i] = true
			s := sc.ShardOf[sc.Dests[i]]
			if shard == -1 {
				shard = s
			} else if s != shard {
				t.Fatalf("worker %d spans shards %d and %d", w, shard, s)
			}
		}
	}
	if len(seen) != len(sc.Dests) {
		t.Fatalf("plan covers %d of %d destinations", len(seen), len(sc.Dests))
	}
}
