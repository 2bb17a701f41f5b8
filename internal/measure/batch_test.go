package measure

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/tracer"
)

// TestCampaignBatchInvariance is the batching analogue of the worker- and
// shard-invariance gates: routing every trace through the batched TTL
// ladder must not move a single number in the Section 4 statistics — at one
// shard and at four.
func TestCampaignBatchInvariance(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := studyConfig(160)
		cfg.Shards = shards
		seq := runStats(t, cfg, 32, false)
		bat := runStats(t, cfg, 32, true)
		if seq.Loops.Instances == 0 || seq.Diamonds.Total == 0 {
			t.Fatalf("shards=%d: campaign saw no anomalies; invariance check degenerate", shards)
		}
		if !reflect.DeepEqual(seq, bat) {
			t.Errorf("shards=%d: campaign statistics differ between batch off and on:\noff: %+v\non:  %+v",
				shards, seq, bat)
		}
	}
}

// TestCampaignBatchRoutesIdentical drills below the aggregates: every
// destination's measured route must match hop for hop between the
// sequential and the batched engine, across shard counts.
func TestCampaignBatchRoutesIdentical(t *testing.T) {
	run := func(batch bool, shards int) *Results {
		cfg := studyConfig(80)
		cfg.Shards = shards
		sc := topo.Generate(cfg)
		camp, err := NewCampaign(sc.Transport(), Config{
			Dests:      sc.Dests,
			Rounds:     3, // >1, so the hint-fed steady-state windows are covered
			Workers:    8,
			RoundStart: sc.RoundStart,
			PortSeed:   7,
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
		return res
	}
	for _, shards := range []int{1, 4} {
		a := run(false, shards)
		b := run(true, shards)
		for r := range a.Rounds {
			for i := range a.Rounds[r] {
				pa, pb := a.Rounds[r][i], b.Rounds[r][i]
				if !sameAddrs(pa.Paris.Addresses(), pb.Paris.Addresses()) ||
					!sameAddrs(pa.Classic.Addresses(), pb.Classic.Addresses()) ||
					pa.Paris.Halt != pb.Paris.Halt || pa.Classic.Halt != pb.Classic.Halt {
					t.Fatalf("shards=%d round %d dest %v: routes differ between batch off and on",
						shards, r, pa.Dest)
				}
			}
		}
	}
}

// nonBatchTransport hides the transport's ExchangeBatch method, modelling a
// transport (e.g. a live-network one) that only offers single exchanges.
type nonBatchTransport struct {
	tp tracer.Transport
}

func (n nonBatchTransport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	return n.tp.Exchange(probe)
}

func (n nonBatchTransport) Source() netip.Addr { return n.tp.Source() }

// TestCampaignBatchFallback runs a Batch-configured campaign over a
// transport with no batching support: every trace must fall back to the
// sequential loop and produce the same statistics.
func TestCampaignBatchFallback(t *testing.T) {
	run := func(tp tracer.Transport, batch bool, sc *topo.Scenario) *Stats {
		camp, err := NewCampaign(tp, Config{
			Dests:      sc.Dests,
			Rounds:     2,
			Workers:    8,
			RoundStart: sc.RoundStart,
			PortSeed:   42,
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
		sort.Slice(s.AllAddresses, func(i, j int) bool {
			return s.AllAddresses[i].Less(s.AllAddresses[j])
		})
		return s
	}
	scA := topo.Generate(studyConfig(60))
	want := run(scA.Transport(), false, scA)
	scB := topo.Generate(studyConfig(60))
	got := run(nonBatchTransport{scB.Transport()}, true, scB)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("batch-configured campaign over a non-batching transport differs from sequential:\nwant: %+v\ngot:  %+v", want, got)
	}
}
