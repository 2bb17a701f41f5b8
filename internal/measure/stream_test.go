package measure

import (
	"bytes"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/ckpt"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// runStreamStats executes one batched, eight-worker, three-round campaign
// over a fresh 60-destination copy of the default scenario, streaming or
// retaining its pairs, and returns its statistics.
func runStreamStats(t *testing.T, stream bool) *Stats {
	t.Helper()
	sc := topo.Generate(simtest.Default(60))
	camp := newCampaign(t, sc.Transport(), Config{
		Dests:      sc.Dests,
		Rounds:     3,
		Workers:    8,
		RoundStart: sc.RoundStart,
		PortSeed:   42,
		Batch:      true,
		Stream:     stream,
	})
	res := mustRun(t, camp)
	if res.Stats == nil {
		t.Fatalf("stream=%v: campaign returned no Stats", stream)
	}
	if stream && res.Rounds != nil {
		t.Fatalf("streaming campaign retained %d rounds of pairs", len(res.Rounds))
	}
	if !stream && len(res.Rounds) != 3 {
		t.Fatalf("retaining campaign kept %d rounds of pairs, want 3", len(res.Rounds))
	}
	return res.Stats
}

// TestAnalyzeAllAddressesSorted pins the deterministic report order: both
// modes emit AllAddresses ascending without any caller-side sort.
func TestAnalyzeAllAddressesSorted(t *testing.T) {
	for _, stream := range []bool{false, true} {
		s := runStreamStats(t, stream)
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
// same routes round after round must keep exactly one interned route per
// side while the per-round tallies keep counting.
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

	// A changed route interns a second object.
	p := Pair{Dest: d, Round: 4, Classic: synthRoute(d, 1, 5, 5, 3), Paris: synthRoute(d, 1, 2, 4, 3)}
	a.Fold(&p)
	if len(ds.classic) != 2 || len(ds.paris) != 1 {
		t.Errorf("after route change: classic=%d paris=%d, want 2 and 1", len(ds.classic), len(ds.paris))
	}
}

// TestFoldNewParis: FoldResult.NewParis is set exactly when the pair's
// Paris route is not already interned for its destination with equal
// contents. Each step folds one pair into the same accumulator, in order.
func TestFoldNewParis(t *testing.T) {
	d := netip.AddrFrom4([4]byte{172, 16, 0, 1})
	a := NewAccumulator()
	classicA, classicB := synthRoute(d, 1, 2, 2, 3), synthRoute(d, 1, 5, 5, 3)
	paris1, paris2, paris3 := synthRoute(d, 1, 2, 4, 3), synthRoute(d, 1, 6, 4, 3), synthRoute(d, 1, 7, 4, 3)
	// plant interns a copy of paris1's memo under rt's fingerprint, so rt's
	// fingerprint is present with unequal contents.
	plant := func(rt *tracer.Route) {
		ds := a.dests[d]
		at, found := searchMemo(ds.paris, rt.Fingerprint())
		if found {
			t.Fatal("route already interned; nothing to collide with")
		}
		planted := ds.paris[0]
		planted.fp = rt.Fingerprint()
		ds.paris = slices.Insert(ds.paris, at, planted)
	}
	badHalt := synthRoute(d, 1, 8, 4, 3)
	badHalt.Halt = tracer.HaltMaxTTL + 1 // no memo header holds it
	noCell := synthRoute(d, 1, 9, 4, 3)
	noCell.Hops[0].TTL = 300 // no canonical cell holds it
	for i, step := range []struct {
		name           string
		before         func()
		classic, paris *tracer.Route
		want           bool
	}{
		{"first pair", nil, classicA, paris1, true},
		{"interned route repeats", nil, classicA, paris1, false},
		{"new classic route alone", nil, classicB, paris1, false},
		{"second paris route", nil, classicA, paris2, true},
		{"back to a known route", nil, classicB, paris1, false},
		{"known again", nil, classicA, paris2, false},
		{"fingerprint collision", func() { plant(paris3) }, classicA, paris3, true},
		{"collision is never interned", nil, classicA, paris3, true},
		{"halt the memo refuses", nil, classicA, badHalt, true},
		{"refused halt again", nil, classicA, badHalt, true},
		{"hop the cells refuse", nil, classicA, noCell, true},
		{"refused hop again", nil, classicA, noCell, true},
		{"a known route after all of them", nil, classicB, paris2, false},
	} {
		if step.before != nil {
			step.before()
		}
		p := Pair{Dest: d, Round: i, Classic: step.classic.Clone(), Paris: step.paris.Clone()}
		if got := a.Fold(&p).NewParis; got != step.want {
			t.Errorf("step %d (%s): NewParis %v, want %v", i, step.name, got, step.want)
		}
	}
	if ds := a.dests[d]; len(ds.paris) != 3 || len(ds.classic) != 2 {
		t.Errorf("interned %d paris routes (the planted memo among them) and %d classic, want 3 and 2", len(ds.paris), len(ds.classic))
	}
	if fr := a.Fold(&Pair{Dest: d, Round: 99, Outcome: OutcomeFailed}); fr.NewParis {
		t.Error("a failed pair reports a new route")
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

// mustState is a's checkpoint body as a file holds it: State's, written.
func mustState(t testing.TB, a *Accumulator) AccState {
	t.Helper()
	st, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	return written(t, st)
}

// written is a body State returned as a file holds it: framed with its
// noted cells streamed into place (Checkpoint.Encode) and read back, one run
// of bytes.
func written(t testing.TB, st AccState) AccState {
	t.Helper()
	var file bytes.Buffer
	file.Grow(st.size() + 64)
	if err := ckpt.Encode(&file, ckpt.KindCampaign, CheckpointVersion, (&Checkpoint{Workers: []AccState{st}}).Encode); err != nil {
		t.Fatal(err)
	}
	back := new(Checkpoint)
	if err := ckpt.Decode(file.Bytes(), ckpt.KindCampaign, CheckpointVersion, back.Decode); err != nil {
		t.Fatal(err)
	}
	return back.Workers[0]
}

// TestReadsDoNotMoveStatistics: a read (Merge, State) brings an
// accumulator's sorted views and diamond tallies up to date, and must leave
// what it reports exactly as if nothing had been read before. Over twelve
// rounds of the flips-on topology, accumulator a is read after every round
// and replaced by its own restored snapshot after round 6; b folds the same
// pairs and is read once, at the end. Their statistics and encoded states
// must be equal. The same pairs split across two workers (one read every
// round, one never) must merge to the same statistics in either order. And a
// body State snapshots after round 3 but writes only after a has folded
// rounds 4 to 6 must be the body written at once.
func TestReadsDoNotMoveStatistics(t *testing.T) {
	const rounds = 12
	w := newSteadyWorkerOn(t, simtest.Default(300))
	n := len(w.sc.Dests)
	a, b := NewAccumulator(), NewAccumulator()
	var late, at3 AccState
	split := [2]*Accumulator{NewAccumulator(), NewAccumulator()}
	for r := 0; r < rounds; r++ {
		w.sc.RoundStart(r)
		for i, d := range w.sc.Dests {
			p, err := w.c.measureDest(0, r, d, &w.c.runs[i])
			if err != nil {
				t.Fatal(err)
			}
			a.Fold(&p)
			b.Fold(&p)
			split[i%2].Fold(&p)
			w.c.probers[0].Recycle(&p)
		}
		Merge(r+1, n, a)
		Merge(r+1, n, split[0])
		mustState(t, a)
		if r == 3 {
			var err error
			if late, err = a.State(); err != nil {
				t.Fatal(err)
			}
			at3 = mustState(t, a)
		}
		if r == 6 {
			restored, err := RestoreAccumulator(mustState(t, a))
			if err != nil {
				t.Fatal(err)
			}
			a = restored
		}
	}
	if !bytes.Equal(written(t, late).head, at3.head) {
		t.Error("a body written after later folds differs from the one written when State ran")
	}
	want := Merge(rounds, n, b)
	if d := simtest.Diff(want, Merge(rounds, n, a)); d != "" {
		t.Errorf("statistics of the accumulator read every round differ from one read once: %s", d)
	}
	if !bytes.Equal(mustState(t, a).head, mustState(t, b).head) {
		t.Error("encoded states of the accumulator read every round and the one read once differ")
	}
	if d := simtest.Diff(want, Merge(rounds, n, split[0], split[1])); d != "" {
		t.Errorf("two-worker split differs from one accumulator: %s", d)
	}
	if d := simtest.Diff(Merge(rounds, n, split[0], split[1]), Merge(rounds, n, split[1], split[0])); d != "" {
		t.Errorf("merge depends on accumulator order: %s", d)
	}
	if want.Diamonds.PerFlow == 0 || want.Diamonds.ParisTotal == 0 || want.Loops.AddrsInLoop == 0 || want.Cycles.AddrsInCycle == 0 {
		t.Fatalf("degenerate campaign: %+v", want)
	}
}

// portTap records, per destination, the UDP port pairs of the probes sent
// toward it.
type portTap struct {
	tracer.Transport
	ports map[netip.Addr]map[[2]uint16]bool
}

func (p *portTap) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	for _, probe := range probes {
		dst := netip.AddrFrom4([4]byte(probe[16:20]))
		if p.ports[dst] == nil {
			p.ports[dst] = make(map[[2]uint16]bool)
		}
		p.ports[dst][[2]uint16{uint16(probe[20])<<8 | uint16(probe[21]), uint16(probe[22])<<8 | uint16(probe[23])}] = true
	}
	p.Transport.ExchangeBatch(probes, out)
}

// TestCampaignParisPortPlan pins the Paris flow-identifier derivation on the
// wire: a worker's one reusable Paris tracer, re-aimed per pair, must send
// every probe toward a destination with exactly the ports portFor derives
// for it, in the paper's range, round after round.
func TestCampaignParisPortPlan(t *testing.T) {
	sc := smallScenario(t, 20)
	tap := &portTap{Transport: sc.Transport(), ports: make(map[netip.Addr]map[[2]uint16]bool)}
	mustRun(t, newCampaign(t, tap, Config{Dests: sc.Dests, Rounds: 2, Workers: 1, PortSeed: 99}))
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
// ByCause tallies must reflect each round's own IP IDs, as if each route
// were classified afresh.
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
