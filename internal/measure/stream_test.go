package measure

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// runStreamStats executes one campaign over a fresh copy of the
// deterministic scenario with the streaming accumulators on or off and
// returns the statistics either path yields.
func runStreamStats(t *testing.T, stream, batch bool, shards, workers, dests, rounds, every int) *Stats {
	t.Helper()
	cfg := invarianceConfig(dests)
	cfg.Shards = shards
	sc := topo.Generate(cfg)
	camp, err := NewCampaign(sc.Transport(), Config{
		Dests:      sc.Dests,
		Rounds:     rounds,
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
	if every > 0 {
		camp.foldEvery = every
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stream {
		if res.Rounds != nil {
			t.Fatalf("streaming campaign retained %d rounds of pairs", len(res.Rounds))
		}
		if res.Stats == nil {
			t.Fatal("streaming campaign returned no Stats")
		}
		return res.Stats
	}
	if res.Stats != nil {
		t.Fatal("materializing campaign returned streamed Stats")
	}
	return Analyze(res)
}

// TestCampaignStreamInvariance is the streaming analogue of the worker-,
// shard- and batch-invariance gates: folding pairs into per-worker
// accumulators as they complete must produce byte-identical Stats —
// including AllAddresses order — to materializing every pair and running
// Analyze, at one shard and four, with the batched ladder off and on.
func TestCampaignStreamInvariance(t *testing.T) {
	const (
		dests  = 120
		rounds = 5
	)
	for _, shards := range []int{1, 4} {
		for _, batch := range []bool{false, true} {
			mat := runStreamStats(t, false, batch, shards, 32, dests, rounds, 0)
			str := runStreamStats(t, true, batch, shards, 32, dests, rounds, 0)
			if mat.Loops.Instances == 0 || mat.Diamonds.Total == 0 {
				t.Fatalf("shards=%d batch=%v: deterministic campaign saw no anomalies; invariance check degenerate", shards, batch)
			}
			if !reflect.DeepEqual(mat, str) {
				t.Errorf("shards=%d batch=%v: campaign statistics differ between materialized Analyze and streaming:\nanalyze: %+v\nstream:  %+v",
					shards, batch, mat, str)
			}
		}
	}
}

// TestCampaignStreamInvarianceFoldEvery pins the fold-batching contract:
// staging completed pairs in the per-worker ring and folding K at a time
// must be byte-identical to folding each pair immediately (K=1), for a K
// smaller than, equal to, and larger than a worker's per-round share — the
// larger-than case forcing folds to defer across round boundaries until
// the end-of-campaign flush.
func TestCampaignStreamInvarianceFoldEvery(t *testing.T) {
	const (
		dests  = 96
		rounds = 4
	)
	immediate := runStreamStats(t, true, true, 1, 32, dests, rounds, 1)
	if immediate.Loops.Instances == 0 {
		t.Fatal("deterministic campaign saw no anomalies; invariance check degenerate")
	}
	// A worker's per-round share is dests/32 = 3 pairs, so K=16 spans
	// rounds and K=1<<20 defers everything to the final flush.
	for _, k := range []int{2, 16, 1 << 20} {
		batched := runStreamStats(t, true, true, 1, 32, dests, rounds, k)
		if !reflect.DeepEqual(immediate, batched) {
			t.Errorf("foldEvery=%d: campaign statistics differ from foldEvery=1:\nK=1: %+v\nK=%d: %+v",
				k, immediate, k, batched)
		}
	}
}

// TestCampaignStreamInvarianceFullGadgets repeats the gate on the default
// topology — zero-TTL pods, loopers, per-packet flips and all — which is
// schedule-dependent, so one worker keeps the probe order (and with it
// every IP ID) reproducible. This is the end-to-end check that the
// accumulator's per-round re-evaluation of the IP-ID-consulting rules
// matches what Analyze computes over retained pairs.
func TestCampaignStreamInvarianceFullGadgets(t *testing.T) {
	run := func(stream bool) *Stats {
		cfg := topo.DefaultGenConfig()
		cfg.Destinations = 200
		// Boost the rare IP-ID-consulting gadgets (zero-TTL pods, loopers)
		// so this small draw actually contains the rules under test.
		cfg.PZeroTTLPod = 0.2
		cfg.PLooperPod = 0.2
		sc := topo.Generate(cfg)
		camp, err := NewCampaign(sc.Transport(), Config{
			Dests:      sc.Dests,
			Rounds:     6,
			Workers:    1,
			RoundStart: sc.RoundStart,
			PortSeed:   42,
			Batch:      true,
			Stream:     stream,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stream {
			return res.Stats
		}
		return Analyze(res)
	}
	mat := run(false)
	str := run(true)
	if mat.Loops.ByCause[anomaly.CauseZeroTTL] == 0 {
		t.Error("no zero-TTL loops in this draw; the IP ID re-evaluation path is not covered")
	}
	if !reflect.DeepEqual(mat, str) {
		t.Errorf("full-gadget campaign statistics differ between materialized Analyze and streaming:\nanalyze: %+v\nstream:  %+v", mat, str)
	}
}

// TestAnalyzeAllAddressesSorted pins the deterministic report order: both
// paths emit AllAddresses ascending without any caller-side sort.
func TestAnalyzeAllAddressesSorted(t *testing.T) {
	for _, stream := range []bool{false, true} {
		s := runStreamStats(t, stream, true, 1, 8, 60, 3, 0)
		if len(s.AllAddresses) == 0 {
			t.Fatal("campaign discovered no addresses")
		}
		if len(s.AllAddresses) != s.AddrsSeen {
			t.Fatalf("stream=%v: AllAddresses %d entries, AddrsSeen %d", stream, len(s.AllAddresses), s.AddrsSeen)
		}
		for i := 1; i < len(s.AllAddresses); i++ {
			if !s.AllAddresses[i-1].Less(s.AllAddresses[i]) {
				t.Fatalf("stream=%v: AllAddresses not in ascending order at %d: %v >= %v",
					stream, i, s.AllAddresses[i-1], s.AllAddresses[i])
			}
		}
	}
}

// TestAccumulatorInterning exercises the memoization directly: folding the
// same routes round after round must keep exactly one interned route and
// one pair classification per side while the per-round tallies keep
// counting.
func TestAccumulatorInterning(t *testing.T) {
	d := netip.AddrFrom4([4]byte{172, 16, 0, 1})
	a := NewAccumulator()
	for round := 0; round < 4; round++ {
		p := Pair{
			Dest:  d,
			Round: round,
			// Classic loops on 2; Paris does not (per-flow LB shape).
			Classic: synthRoute(d, 1, 2, 2, 3),
			Paris:   synthRoute(d, 1, 2, 4, 3),
		}
		a.Fold(&p)
	}
	ds := a.dests[d]
	if ds == nil {
		t.Fatal("no destination state")
	}
	if len(ds.classic) != 1 || len(ds.paris) != 1 {
		t.Errorf("interned %d classic and %d paris routes, want 1 and 1", len(ds.classic), len(ds.paris))
	}
	if len(ds.pairs) != 1 {
		t.Errorf("memoized %d pair classifications, want 1", len(ds.pairs))
	}
	if a.routes != 4 || a.loopInstances != 4 {
		t.Errorf("routes=%d loopInstances=%d, want 4 and 4 (tallies must keep counting per round)", a.routes, a.loopInstances)
	}
	if len(ds.loopSigs) != 1 {
		t.Fatalf("loop signatures = %d, want 1", len(ds.loopSigs))
	}
	for _, sp := range ds.loopSigs {
		if sp.rounds != 4 {
			t.Errorf("signature seen in %d rounds, want 4", sp.rounds)
		}
	}

	// A changed route interns a second object and re-classifies.
	p := Pair{Dest: d, Round: 4, Classic: synthRoute(d, 1, 5, 5, 3), Paris: synthRoute(d, 1, 2, 4, 3)}
	a.Fold(&p)
	if len(ds.classic) != 2 || len(ds.paris) != 1 || len(ds.pairs) != 2 {
		t.Errorf("after route change: classic=%d paris=%d pairs=%d, want 2, 1, 2",
			len(ds.classic), len(ds.paris), len(ds.pairs))
	}
}

// TestMergeSplitMatchesSingle feeds one synthetic result set through a
// single accumulator and through two accumulators split by destination;
// the merged statistics must be identical (the merge-associativity the
// per-worker partials rely on).
func TestMergeSplitMatchesSingle(t *testing.T) {
	d1 := netip.AddrFrom4([4]byte{172, 16, 0, 1})
	d2 := netip.AddrFrom4([4]byte{172, 16, 0, 2})
	pairs := []Pair{
		{Dest: d1, Round: 0, Classic: synthRoute(d1, 1, 2, 2, 3), Paris: synthRoute(d1, 1, 2, 4, 3)},
		{Dest: d2, Round: 0, Classic: synthRoute(d2, 1, 5, 6), Paris: synthRoute(d2, 1, 5, 6)},
		{Dest: d1, Round: 1, Classic: synthRoute(d1, 1, 2, 2, 3), Paris: synthRoute(d1, 1, 2, 4, 3)},
		{Dest: d2, Round: 1, Classic: synthRoute(d2, 1, 5, 6, 5, 7), Paris: synthRoute(d2, 1, 5, 6, 8, 7)},
	}

	single := NewAccumulator()
	for i := range pairs {
		single.Fold(&pairs[i])
	}
	a1, a2 := NewAccumulator(), NewAccumulator()
	for i := range pairs {
		if pairs[i].Dest == d1 {
			a1.Fold(&pairs[i])
		} else {
			a2.Fold(&pairs[i])
		}
	}

	one := Merge(2, 2, single)
	split := Merge(2, 2, a1, a2)
	if !reflect.DeepEqual(one, split) {
		t.Errorf("split accumulation differs from single:\none:   %+v\nsplit: %+v", one, split)
	}
	if one.Loops.Instances == 0 || one.Cycles.Instances == 0 {
		t.Fatal("synthetic pairs produced no anomalies; merge check degenerate")
	}
}

// portTap records, per destination, the UDP port pairs of the probes sent
// toward it.
type portTap struct {
	tracer.Transport
	ports map[netip.Addr]map[[2]uint16]bool
}

func (p *portTap) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	dst := netip.AddrFrom4([4]byte(probe[16:20]))
	if p.ports[dst] == nil {
		p.ports[dst] = make(map[[2]uint16]bool)
	}
	p.ports[dst][[2]uint16{uint16(probe[20])<<8 | uint16(probe[21]), uint16(probe[22])<<8 | uint16(probe[23])}] = true
	return p.Transport.Exchange(probe)
}

// TestCampaignParisPortPlan pins the Paris flow-identifier derivation on the
// wire: a worker's one reusable Paris tracer, re-aimed per pair, must send
// every probe toward a destination with exactly the ports portFor derives
// for it, in the paper's range, round after round.
func TestCampaignParisPortPlan(t *testing.T) {
	sc := smallScenario(t, 20)
	tap := &portTap{Transport: sc.Transport(), ports: make(map[netip.Addr]map[[2]uint16]bool)}
	camp, err := NewCampaign(tap, Config{Dests: sc.Dests, Rounds: 2, Workers: 1, PortSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	for _, d := range sc.Dests {
		src, dst := portFor(99, d, 0x517e), portFor(99, d, 0xd057)
		if src < 10000 || src >= 60000 || dst < 10000 || dst >= 60000 {
			t.Fatalf("dest %v: Paris ports %d/%d outside the paper's range", d, src, dst)
		}
		if !tap.ports[d][[2]uint16{src, dst}] {
			t.Fatalf("dest %v: no probe carried the Paris ports %d/%d", d, src, dst)
		}
		// Every other port pair is a classic probe: pseudo-PID source port,
		// destination port counting up from the classic base.
		for pp := range tap.ports[d] {
			if pp != [2]uint16{src, dst} && (pp[0] < 32768 || pp[1] < tracer.ClassicBaseDstPort) {
				t.Fatalf("dest %v: stray port pair %v", d, pp)
			}
		}
	}
}

// obsHop builds a responding hop with explicit observables.
func obsHop(ttl, a, probeTTL, respTTL int, ipid uint16) tracer.Hop {
	return tracer.Hop{
		TTL: ttl, Addr: aAddr(a), Kind: tracer.KindTimeExceeded,
		ProbeTTL: probeTTL, RespTTL: respTTL, IPID: ipid,
	}
}

// TestAccumulatorIPIDRulesPerRound pins the one place interning must NOT
// memoize: the two classification rules that read response IP IDs. The
// same path measured twice interns to one route, but round 0 carries
// coherent IP IDs (zero-TTL loop / forwarding-loop cycle) and round 1
// incoherent ones (falling through to per-flow differencing), and the
// ByCause tallies must reflect each round's own IP IDs — exactly what a
// materialized Analyze computes.
func TestAccumulatorIPIDRulesPerRound(t *testing.T) {
	d := netip.AddrFrom4([4]byte{172, 16, 0, 1})

	// Zero-TTL loop shape (Fig. 4): the loop's first hop quotes probe TTL
	// 0, the second the normal 1. Coherent IP IDs -> CauseZeroTTL;
	// incoherent -> the paired Paris lacks the loop -> CausePerFlowLB.
	classicZero := func(ipid0, ipid1 uint16) *tracer.Route {
		return &tracer.Route{Dest: d, Halt: tracer.HaltMaxTTL, Hops: []tracer.Hop{
			obsHop(1, 1, 1, 250, 9),
			obsHop(2, 2, 0, 249, ipid0),
			obsHop(3, 2, 1, 249, ipid1),
			obsHop(4, 3, 1, 248, 9),
		}}
	}
	paris := &tracer.Route{Dest: d, Halt: tracer.HaltMaxTTL, Hops: []tracer.Hop{
		obsHop(1, 1, 1, 250, 1),
		obsHop(2, 2, 1, 249, 2),
		obsHop(3, 4, 1, 249, 3),
		obsHop(4, 3, 1, 248, 4),
	}}

	a := NewAccumulator()
	// 3000 exceeds the classifier's IP ID coherence gap (1024).
	p0 := Pair{Dest: d, Round: 0, Classic: classicZero(7, 8), Paris: paris}
	p1 := Pair{Dest: d, Round: 1, Classic: classicZero(7, 8+3000), Paris: paris}
	a.Fold(&p0)
	a.Fold(&p1)
	if got := len(a.dests[d].classic); got != 1 {
		t.Fatalf("interned %d classic routes, want 1 (IP IDs must not split interning)", got)
	}
	s := Merge(2, 1, a)
	if s.Loops.ByCause[anomaly.CauseZeroTTL] != 1 || s.Loops.ByCause[anomaly.CausePerFlowLB] != 1 {
		t.Errorf("zero-TTL loop causes = %v, want one zero-ttl (round 0) and one per-flow (round 1)", s.Loops.ByCause)
	}

	// Periodic cycle (Section 4.2.1): coherent IP IDs on the repeated
	// address -> CauseForwardingLoop; incoherent -> CausePerFlowLB.
	classicCycle := func(ipids [3]uint16) *tracer.Route {
		return &tracer.Route{Dest: d, Halt: tracer.HaltMaxTTL, Hops: []tracer.Hop{
			obsHop(1, 5, 1, 250, ipids[0]),
			obsHop(2, 6, 1, 249, 50),
			obsHop(3, 5, 1, 250, ipids[1]),
			obsHop(4, 6, 1, 249, 51),
			obsHop(5, 5, 1, 250, ipids[2]),
		}}
	}
	parisClean := &tracer.Route{Dest: d, Halt: tracer.HaltMaxTTL, Hops: []tracer.Hop{
		obsHop(1, 5, 1, 250, 1),
		obsHop(2, 6, 1, 249, 2),
		obsHop(3, 7, 1, 250, 3),
	}}
	b := NewAccumulator()
	q0 := Pair{Dest: d, Round: 0, Classic: classicCycle([3]uint16{10, 12, 14}), Paris: parisClean}
	q1 := Pair{Dest: d, Round: 1, Classic: classicCycle([3]uint16{10, 12 + 3000, 14}), Paris: parisClean}
	b.Fold(&q0)
	b.Fold(&q1)
	if got := len(b.dests[d].classic); got != 1 {
		t.Fatalf("interned %d classic cycle routes, want 1", got)
	}
	// Round 0: both cycles (on 5 and on 6) have coherent IP IDs. Round 1:
	// the cycle on 5 goes incoherent (per-flow via differencing) while the
	// one on 6 stays coherent.
	sc := Merge(2, 1, b)
	if sc.Cycles.ByCause[anomaly.CauseForwardingLoop] != 3 || sc.Cycles.ByCause[anomaly.CausePerFlowLB] != 1 {
		t.Errorf("cycle causes = %v, want forwarding-loop x3 and per-flow x1", sc.Cycles.ByCause)
	}
}
