package measure

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"repro/internal/netsim"
	"repro/internal/topo"
)

// studyConfig is the topology the binaries ship, at the given size: the
// default generator configuration with every gadget armed — per-packet
// diamonds, zero-TTL pods, loopers, flaps and flips.
func studyConfig(dests int) topo.GenConfig {
	cfg := topo.DefaultGenConfig()
	cfg.Destinations = dests
	return cfg
}

// runStats executes one five-round campaign over a fresh scenario generated
// from cfg and returns its normalized statistics.
func runStats(t *testing.T, cfg topo.GenConfig, workers int, batch bool) *Stats {
	t.Helper()
	sc := topo.Generate(cfg)
	if cfg.Shards > 1 && len(sc.Nets) != cfg.Shards {
		t.Fatalf("Generate built %d shard networks, want %d", len(sc.Nets), cfg.Shards)
	}
	camp, err := NewCampaign(sc.Transport(), Config{
		Dests:      sc.Dests,
		Rounds:     5,
		Workers:    workers,
		RoundStart: sc.RoundStart,
		PortSeed:   42,
		ShardOf:    sc.ShardOf,
		Batch:      batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := Analyze(res)
	// AllAddresses is collected from map iteration; order is not part of
	// the statistics.
	sort.Slice(s.AllAddresses, func(i, j int) bool {
		return s.AllAddresses[i].Less(s.AllAddresses[j])
	})
	return s
}

// TestCampaignWorkerInvariance is the house invariant at the configuration
// the binaries ship: over the default topology, every gadget armed, the
// full campaign statistics are identical at 1 and 32 workers, on one
// network and on four shards, with the batched ladder off and on. A last
// pair raises the flip rate until schedules toggle inside traces.
func TestCampaignWorkerInvariance(t *testing.T) {
	const dests = 160
	ref := runStats(t, studyConfig(dests), 1, false)
	if ref.Loops.Instances == 0 || ref.Cycles.Instances == 0 || ref.Diamonds.Total == 0 {
		t.Fatal("campaign saw no loops, cycles or diamonds; invariance check degenerate")
	}
	for _, workers := range []int{1, 32} {
		for _, shards := range []int{1, 4} {
			for _, batch := range []bool{false, true} {
				if workers == 1 && shards == 1 && !batch {
					continue
				}
				cfg := studyConfig(dests)
				cfg.Shards = shards
				if got := runStats(t, cfg, workers, batch); !reflect.DeepEqual(ref, got) {
					t.Errorf("workers=%d shards=%d batch=%v: statistics differ from one worker on one network:\nref: %+v\ngot: %+v",
						workers, shards, batch, ref, got)
				}
			}
		}
	}
	flips := studyConfig(dests)
	flips.FlipPerProbe = 0.01
	seq := runStats(t, flips, 1, false)
	flips.Shards = 4
	if par := runStats(t, flips, 32, true); !reflect.DeepEqual(seq, par) {
		t.Errorf("flips armed: statistics differ between one worker and 32 workers on four shards:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestCampaignRoutesIdenticalAcrossWorkers drills below the aggregates: the
// per-destination measured routes themselves must match hop for hop.
func TestCampaignRoutesIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) *Results {
		sc := topo.Generate(studyConfig(80))
		camp, err := NewCampaign(netsim.NewTransport(sc.Net), Config{
			Dests:      sc.Dests,
			Rounds:     2,
			Workers:    workers,
			RoundStart: sc.RoundStart,
			PortSeed:   7,
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
	a, b := run(1), run(32)
	for r := range a.Rounds {
		for i := range a.Rounds[r] {
			pa, pb := a.Rounds[r][i], b.Rounds[r][i]
			if !sameAddrs(pa.Paris.Addresses(), pb.Paris.Addresses()) ||
				!sameAddrs(pa.Classic.Addresses(), pb.Classic.Addresses()) {
				t.Fatalf("round %d dest %v: routes differ between worker counts", r, pa.Dest)
			}
		}
	}
}

func sameAddrs(a, b []netip.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
