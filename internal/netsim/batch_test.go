package netsim

import (
	"bytes"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/packet"
	"repro/internal/tracer"
)

// batchTestNet is testNet plus randomized behaviour (a probabilistic drop
// fault on r2), so the equality tests below cover the per-probe RNG seeding:
// a probe draws the same stream however and whenever it is exchanged.
func batchTestNet(t *testing.T) (*Network, []*Router, *Host) {
	n, rs, h := testNet(t)
	rs[2].SetFaults(Faults{DropProbability: 0.3})
	return n, rs, h
}

// ladderProbes builds a TTL ladder of UDP probes toward the host.
func ladderProbes(t *testing.T, n *Network, dst netip.Addr, maxTTL int) [][]byte {
	t.Helper()
	probes := make([][]byte, 0, maxTTL)
	for ttl := 1; ttl <= maxTTL; ttl++ {
		probes = append(probes, udpProbe(t, n, dst, uint8(ttl), 10007, 20011))
	}
	return probes
}

// TestExchangeBatchMatchesSequential drives two identical networks — one
// probe by probe through Exchange, the other through a single ExchangeBatch
// — and requires byte-identical responses, steps, and ok flags, including
// the RNG-driven drops. The same probes exchanged in reverse order and
// spread across four goroutines must give the same results too, IP IDs
// included: every draw is keyed by the probe, not by when it arrives.
func TestExchangeBatchMatchesSequential(t *testing.T) {
	seqNet, _, host := batchTestNet(t)
	batNet, _, _ := batchTestNet(t)
	probes := ladderProbes(t, seqNet, host.Addr, 8)
	for ttl := range 8 { // a second attempt per TTL: a fresh IP ID draws afresh
		dgram, err := packet.MarshalUDPInto(nil, seqNet.Source(), host.Addr, &packet.UDP{SrcPort: 10007, DstPort: 20011}, make([]byte, 12))
		if err != nil {
			t.Fatal(err)
		}
		p, err := (&packet.IPv4{TTL: uint8(1 + ttl), ID: 2, Protocol: packet.ProtoUDP, Src: seqNet.Source(), Dst: host.Addr}).MarshalInto(nil, dgram)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, p)
	}

	out := make([]tracer.ProbeResult, len(probes))
	outSteps := make([]int, len(probes))
	batNet.exchange(probes, out, outSteps)

	sawDrop := false
	for i, p := range probes {
		resp, steps, ok := seqNet.Exchange(p)
		if ok != out[i].OK || steps != outSteps[i] {
			t.Errorf("probe %d: batch (ok=%v steps=%d) vs sequential (ok=%v steps=%d)",
				i, out[i].OK, outSteps[i], ok, steps)
		}
		if ok && !bytes.Equal(resp, out[i].Resp) {
			t.Errorf("probe %d: batch response differs from sequential\nbatch: %x\nseq:   %x",
				i, out[i].Resp, resp)
		}
		if !ok {
			sawDrop = true
		}
	}
	if !sawDrop {
		t.Fatal("no probe was dropped; the RNG-equality check is degenerate")
	}
	if got, want := batNet.ProbeCount(), seqNet.ProbeCount(); got != want {
		t.Errorf("batch network counted %d probes, sequential %d", got, want)
	}

	// Reversed, one exchange each, on a fresh network.
	revNet, _, _ := batchTestNet(t)
	rev, revSteps := make([]tracer.ProbeResult, len(probes)), make([]int, len(probes))
	for i := len(probes) - 1; i >= 0; i-- {
		revNet.exchange(probes[i:i+1], rev[i:i+1], revSteps[i:i+1])
	}
	// Four goroutines, each a strided batch, on another.
	parNet, _, _ := batchTestNet(t)
	par, parSteps := make([]tracer.ProbeResult, len(probes)), make([]int, len(probes))
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine [][]byte
			for i := g; i < len(probes); i += 4 {
				mine = append(mine, probes[i])
			}
			res, steps := make([]tracer.ProbeResult, len(mine)), make([]int, len(mine))
			parNet.exchange(mine, res, steps)
			for k, i := 0, g; i < len(probes); k, i = k+1, i+4 {
				par[i], parSteps[i] = res[k], steps[k]
			}
		}()
	}
	wg.Wait()
	for _, run := range []struct {
		name  string
		got   []tracer.ProbeResult
		steps []int
	}{{"reversed", rev, revSteps}, {"4 goroutines", par, parSteps}} {
		for i, g := range run.got {
			if g.OK != out[i].OK || run.steps[i] != outSteps[i] ||
				!bytes.Equal(g.Resp, out[i].Resp) {
				t.Errorf("%s: probe %d: ok=%v steps=%d resp %x, forward ok=%v steps=%d resp %x",
					run.name, i, g.OK, run.steps[i], g.Resp, out[i].OK, outSteps[i], out[i].Resp)
			}
		}
	}
}

// TestExchangeBatchReusesResultBuffers checks the ownership contract: a
// second batch through the same result slice refills the same backing
// arrays, and the results are again correct.
func TestExchangeBatchReusesResultBuffers(t *testing.T) {
	n, _, host := testNet(t)
	probes := ladderProbes(t, n, host.Addr, 5)
	out := make([]tracer.ProbeResult, len(probes))
	n.ExchangeBatch(probes, out)

	first := make([][]byte, len(out))
	bufs := make([]*byte, len(out))
	for i := range out {
		if !out[i].OK {
			t.Fatalf("probe %d: first batch got no response", i)
		}
		first[i] = append([]byte(nil), out[i].Resp...)
		bufs[i] = &out[i].Resp[0]
	}
	n.ExchangeBatch(probes, out)
	for i := range out {
		if !out[i].OK {
			t.Fatalf("probe %d: second batch got no response", i)
		}
		// The same probes in the same round draw the same responses, byte
		// for byte, into the recycled buffers.
		if !bytes.Equal(out[i].Resp, first[i]) {
			t.Errorf("probe %d: second batch response %x, first %x", i, out[i].Resp, first[i])
		}
		if &out[i].Resp[0] != bufs[i] {
			t.Errorf("probe %d: response buffer reallocated", i)
		}
	}
}
