package netsim

import (
	"testing"
	"time"

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
