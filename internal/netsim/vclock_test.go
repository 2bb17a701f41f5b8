package netsim

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/keyhash"
	"repro/internal/tracer"
)

// testDynamics is a fully-armed dynamics configuration used across these
// tests: delay, load, and churn all active.
var testDynamics = Dynamics{Seed: 99, Delay: 1, Load: 0.3, Churn: 0.5}

// TestDynamicsSeedDeterminism pins that two identically-built networks with
// the same dynamics seed report identical virtual RTTs probe for probe, and
// that a different dynamics seed reports different ones.
func TestDynamicsSeedDeterminism(t *testing.T) {
	rtts := func(seed uint64) []time.Duration {
		n, _, host := testNet(t)
		n.SetDynamics(Dynamics{Seed: seed, Delay: 1, Load: 0.3})
		var out []time.Duration
		for ttl := uint8(1); ttl <= 5; ttl++ {
			_, _, rtt, ok := n.ExchangeV(udpProbe(t, n, host.Addr, ttl, 111, 222))
			if !ok {
				t.Fatalf("ttl %d: no response", ttl)
			}
			out = append(out, rtt)
		}
		return out
	}
	a, b := rtts(7), rtts(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe %d: same seed diverged: %v vs %v", i, a[i], b[i])
		}
		if a[i] <= 0 {
			t.Fatalf("probe %d: rtt %v not positive", i, a[i])
		}
	}
	c := rtts(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different dynamics seeds produced identical RTTs")
	}
}

// TestDynamicsBatchMatchesSequential pins the batch contract with dynamics
// enabled: ExchangeBatch must produce byte-identical responses, steps, and
// virtual RTTs to sequential Exchanges in the same order.
func TestDynamicsBatchMatchesSequential(t *testing.T) {
	build := func() (*Network, [][]byte) {
		n, _, host := testNet(t)
		n.SetDynamics(testDynamics)
		var probes [][]byte
		for round := 0; round < 4; round++ {
			for ttl := uint8(1); ttl <= 6; ttl++ {
				probes = append(probes, udpProbe(t, n, host.Addr, ttl, uint16(1000+round), 33434))
			}
		}
		return n, probes
	}

	seqNet, probes := build()
	type outcome struct {
		resp  string
		steps int
		rtt   time.Duration
		ok    bool
	}
	seq := make([]outcome, len(probes))
	for i, p := range probes {
		resp, steps, rtt, ok := seqNet.ExchangeV(p)
		seq[i] = outcome{string(resp), steps, rtt, ok}
	}

	batchNet, probes2 := build()
	out := make([]ExchangeResult, len(probes2))
	batchNet.ExchangeBatch(probes2, out)
	for i := range out {
		got := outcome{string(out[i].Resp), out[i].Steps, out[i].RTT, out[i].OK}
		if got != seq[i] {
			t.Fatalf("probe %d: batch %+v != sequential %+v", i, got, seq[i])
		}
	}
}

// TestDynamicsChurnProducesStars pins that a high enough churn rate drops
// probes via brownouts (the mid-route star mechanism): across many rounds
// some probes go unanswered while dynamics-off runs answer all of them.
func TestDynamicsChurnProducesStars(t *testing.T) {
	n, _, host := testNet(t)
	n.SetDynamics(Dynamics{Seed: 5, Churn: 1})
	stars := 0
	total := 0
	for round := 0; round < 400; round++ {
		n.SetVirtualRound(round)
		for ttl := uint8(1); ttl <= 4; ttl++ {
			total++
			if _, _, _, ok := n.ExchangeV(udpProbe(t, n, host.Addr, ttl, 111, 222)); !ok {
				stars++
			}
		}
	}
	if stars == 0 {
		t.Fatalf("no brownout drops across %d probes at churn 1", total)
	}
	if stars == total {
		t.Fatal("every probe dropped; brownouts should be windows, not a blackout")
	}
}

// TestRouteRTTLadder pins the tentpole's RTT plumbing end to end through
// the tracer: with dynamics on, every responding hop of a traced Route
// carries a positive virtual RTT, strictly increasing along the TTL ladder
// (per-link propagation is time-invariant, so deeper probes always travel
// strictly longer); with dynamics off and the synthetic per-hop latency
// zeroed, every RTT field is exactly zero.
func TestRouteRTTLadder(t *testing.T) {
	t.Run("dynamics on", func(t *testing.T) {
		n, _, host := testNet(t)
		// Delay only: load and churn off keeps per-link delays
		// time-invariant, making the ladder strictly monotone.
		n.SetDynamics(Dynamics{Seed: 3, Delay: 1})
		tp := NewTransport(n)
		rt, err := tracer.NewParisUDP(tp, tracer.Options{}).Trace(host.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if !rt.Reached() {
			t.Fatal("trace did not reach the destination")
		}
		var prev time.Duration
		for i, h := range rt.Hops {
			if h.Star() {
				t.Fatalf("hop %d: unexpected star", i)
			}
			if h.RTT <= 0 {
				t.Fatalf("hop %d: RTT %v, want > 0", i, h.RTT)
			}
			if h.RTT <= prev {
				t.Fatalf("hop %d: RTT %v not greater than previous %v", i, h.RTT, prev)
			}
			prev = h.RTT
		}
	})
	t.Run("dynamics off", func(t *testing.T) {
		n, _, host := testNet(t)
		tp := NewTransport(n)
		tp.PerHop = 0 // suppress the synthetic steps-derived RTT too
		rt, err := tracer.NewParisUDP(tp, tracer.Options{}).Trace(host.Addr)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range rt.Hops {
			if h.RTT != 0 {
				t.Fatalf("hop %d: RTT %v, want exactly 0 with dynamics off", i, h.RTT)
			}
		}
	})
}

// TestExchangeVZeroWithoutDynamics pins that the rtt return is exactly zero
// on the historical path.
func TestExchangeVZeroWithoutDynamics(t *testing.T) {
	n, _, host := testNet(t)
	_, _, rtt, ok := n.ExchangeV(udpProbe(t, n, host.Addr, 2, 111, 222))
	if !ok {
		t.Fatal("no response")
	}
	if rtt != 0 {
		t.Fatalf("rtt = %v, want 0 without dynamics", rtt)
	}
}

// TestDynamicsRoundsSeparateTimelines pins SetVirtualRound: the same probe
// bytes in different rounds observe different virtual start times, so
// load-driven queueing varies round over round while staying deterministic
// within a round.
func TestDynamicsRoundsSeparateTimelines(t *testing.T) {
	n, _, host := testNet(t)
	n.SetDynamics(Dynamics{Seed: 11, Delay: 1, Load: 0.8})
	probe := udpProbe(t, n, host.Addr, 4, 111, 222)
	byRound := make([]time.Duration, 0, 8)
	for round := 0; round < 8; round++ {
		n.SetVirtualRound(round)
		_, _, rtt, ok := n.ExchangeV(probe)
		if !ok {
			t.Fatalf("round %d: no response", round)
		}
		// Same probe, same round: identical virtual timeline.
		_, _, rtt2, ok2 := n.ExchangeV(probe)
		if !ok2 || rtt2 != rtt {
			t.Fatalf("round %d: repeat exchange rtt %v, want %v", round, rtt2, rtt)
		}
		byRound = append(byRound, rtt)
	}
	distinct := make(map[time.Duration]bool)
	for _, r := range byRound {
		distinct[r] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("rtts identical across all rounds: %v", byRound)
	}
}

// TestDynamicsDrawsOracle holds every dynamics draw but the queueing burst
// to its closed form from before the burst became a table load: a stream is
// Mix64 chained from seed^salt through the link key (and the window),
// per-link parameters are Irwin–Hall lognormals, and a probe's start hashes
// its bytes. Only linkDelay's burst factor reads burstTable, and it reads
// the entry the same window hash selects.
func TestDynamicsDrawsOracle(t *testing.T) {
	mix := keyhash.Mix64
	oldLink := func(seed, salt, k uint64) uint64 { return mix(mix(seed^salt) ^ k) }
	oldWindow := func(seed, salt, k uint64, w int64) uint64 { return mix(oldLink(seed, salt, k) ^ uint64(w)) }
	irwinHall := func(h uint64) float64 {
		s := 0.0
		for i := 0; i < 6; i++ {
			h = mix(h)
			s += float64(h>>11) / (1 << 53)
		}
		return (s - 3) * math.Sqrt2
	}

	keys := []uint64{0, 1, 0x0a000001, 0x0a0001fe, 0xac100001, 0xc0a80101, 0xffffffff}
	for i := uint64(0); i < 24; i++ {
		keys = append(keys, mix(i)&0xffffffff)
	}
	var times []int64
	for _, base := range []int64{0, 29_999_999_999, 30 * int64(time.Second), 555*30*int64(time.Second) + 123_456_789} {
		for _, off := range []int64{0, 1, burstBucketNs - 1, burstBucketNs, brownWindowNs, rotWindowNs + 7, flapWindowNs, 3*flapWindowNs + 1} {
			times = append(times, base+off)
		}
	}
	probes := [][]byte{nil, {0}, {0x45, 0, 0, 28, 1, 2, 3, 4}, make([]byte, 40)}

	flaps, browns, rots := 0, 0, 0
	for _, seed := range []uint64{0, 1, 7, 99, 0x9e3779b97f4a7c15} {
		for _, cfg := range []Dynamics{
			{Seed: seed, Delay: 1, Load: 0.3, Churn: 0.5},
			{Seed: seed, Delay: 2.5, Churn: 1, RoundDuration: 7 * time.Second},
		} {
			dy := compileDynamics(cfg)
			dy.links = make([]linkSlot, 1)
			for _, k := range keys {
				prop := dy.delay * basePropNs * math.Exp(sigmaProp*irwinHall(oldLink(seed, saltProp, k)))
				bw := baseBWBitsPerNs * math.Exp(sigmaBW*irwinHall(oldLink(seed, saltBW, k)))
				dy.links[0] = linkSlot{}
				for _, to := range []int32{nodeNone, 0, 0} { // uncached, filling, cached
					if p := dy.paramsOf(uint32(k), to); p.propNs != prop || p.bwBitsPerNs != bw {
						t.Fatalf("seed %#x key %#x to %d: paramsOf %+v, want {%v %v}", seed, k, to, p, prop, bw)
					}
				}
				for _, now := range times {
					burstH := oldWindow(seed, saltBurst, k, now/burstBucketNs)
					if got := windowHash(dy.burstBase, k, now/burstBucketNs); got != burstH {
						t.Fatalf("seed %#x key %#x at %d: burst window hash %#x, want %#x", seed, k, now, got, burstH)
					}
					ns := prop + float64(100*8)/bw
					if dy.load > 0 {
						ns += dy.qFactor * (crossPktBits / bw) * burstTable[burstH>>52]
					}
					if got := dy.linkDelay(uint32(k), 0, now, 100); got != int64(max(ns, 1)) {
						t.Fatalf("seed %#x key %#x at %d: linkDelay %d, want %d", seed, k, now, got, int64(max(ns, 1)))
					}

					flapH := oldWindow(seed, saltFlap, k, now/flapWindowNs)
					brownH := oldWindow(seed, saltBrown, k, now/brownWindowNs)
					rotH := oldWindow(seed, saltRot, k, now/rotWindowNs)
					if windowHash(dy.flapBase, k, now/flapWindowNs) != flapH ||
						windowHash(dy.brownBase, k, now/brownWindowNs) != brownH ||
						windowHash(dy.rotBase, k, now/rotWindowNs) != rotH {
						t.Fatalf("seed %#x key %#x at %d: a churn window hash moved", seed, k, now)
					}
					flap := float64(flapH>>11)/(1<<53) < flapProb*dy.churn
					brown := float64(brownH>>11)/(1<<53) < brownProb*dy.churn
					rot := 0
					if float64(rotH>>11)/(1<<53) < rotProb*dy.churn {
						rot = 1 + int(mix(rotH)%15)
					}
					if dy.flapActive(uint32(k), now) != flap || dy.brownout(uint32(k), now) != brown || dy.weightRot(uint32(k), now) != rot {
						t.Fatalf("seed %#x key %#x at %d: flap/brownout/rotation %v/%v/%d, want %v/%v/%d", seed, k, now,
							dy.flapActive(uint32(k), now), dy.brownout(uint32(k), now), dy.weightRot(uint32(k), now), flap, brown, rot)
					}
					if flap {
						flaps++
					}
					if brown {
						browns++
					}
					if rot != 0 {
						rots++
					}
				}
			}
			for round := int64(0); round < 600; round += 111 {
				for _, p := range probes {
					want := round*dy.roundDur + int64(mix(keyhash.FNV1a(seed^saltStart, p))%uint64(dy.roundDur))
					if got := dy.probeStart(round, p); got != want {
						t.Fatalf("seed %#x round %d probe %x: start %d, want %d", seed, round, p, got, want)
					}
				}
			}
		}
	}
	if rots == 0 {
		t.Fatal("no weight rotation fired over the grid; the rotation branch went unchecked")
	}
	t.Logf("grid fired %d flaps, %d brownouts, %d rotations", flaps, browns, rots)
}

// TestBurstTable pins the burst factor's table: sorted quantiles of a
// median-1 lognormal (entries i and N-1-i are reciprocals) whose mean is
// within 0.5% of the lognormal's e^(σ²/2).
func TestBurstTable(t *testing.T) {
	if !sort.Float64sAreSorted(burstTable[:]) {
		t.Fatal("burstTable is not sorted")
	}
	sum := 0.0
	for i, v := range burstTable {
		if prod := v * burstTable[burstTableSize-1-i]; math.Abs(prod-1) > 1e-12 {
			t.Fatalf("entries %d and %d multiply to %v, want 1", i, burstTableSize-1-i, prod)
		}
		sum += v
	}
	mean, want := sum/burstTableSize, math.Exp(sigmaBurst*sigmaBurst/2)
	if math.Abs(mean/want-1) > 0.005 {
		t.Fatalf("table mean %v, want within 0.5%% of %v", mean, want)
	}
	t.Logf("table mean %.6f (lognormal %.6f), range [%.4f, %.4f]", mean, want, burstTable[0], burstTable[burstTableSize-1])
}
