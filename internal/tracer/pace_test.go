package tracer

import (
	"net/netip"
	"testing"
	"time"
)

// fakeClock drives a Pacer without wall time: Take's sleeps advance the
// clock by exactly the requested wait, so token arithmetic is pinned.
type fakeClock struct {
	now    time.Time
	slept  []time.Duration
	asleep time.Duration
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.asleep += d
	c.now = c.now.Add(d)
}

func TestPacerBurstThenBlocks(t *testing.T) {
	c := newFakeClock()
	p := NewPacer(10, 5, c.Now, c.Sleep) // 10 tokens/s, bucket of 5

	for i := 0; i < 5; i++ {
		p.Take(1)
	}
	if len(c.slept) != 0 {
		t.Fatalf("burst capacity should not wait: slept %v", c.slept)
	}
	p.Take(1) // deficit of 1 token at 10/s → 100ms
	if len(c.slept) != 1 || c.slept[0] != 100*time.Millisecond {
		t.Fatalf("slept %v, want one 100ms wait", c.slept)
	}
}

func TestPacerRefill(t *testing.T) {
	c := newFakeClock()
	p := NewPacer(10, 5, c.Now, c.Sleep)
	for i := 0; i < 5; i++ {
		p.Take(1)
	}
	c.now = c.now.Add(300 * time.Millisecond) // refills 3 tokens
	p.Take(3)
	if len(c.slept) != 0 {
		t.Fatalf("refilled tokens should not wait: slept %v", c.slept)
	}
	p.Take(1)
	if len(c.slept) != 1 {
		t.Fatalf("empty bucket should wait: slept %v", c.slept)
	}
}

func TestPacerOverBurstBatch(t *testing.T) {
	// A batch bigger than the bucket must pace as one call, never
	// deadlock: the bucket goes negative by the overshoot.
	c := newFakeClock()
	p := NewPacer(100, 4, c.Now, c.Sleep)
	p.Take(24) // deficit 20 at 100/s → 200ms
	if len(c.slept) != 1 || c.slept[0] != 200*time.Millisecond {
		t.Fatalf("slept %v, want one 200ms wait", c.slept)
	}
}

func TestPacerDisabledAndClamped(t *testing.T) {
	c := newFakeClock()
	p := NewPacer(0, 5, c.Now, c.Sleep)
	p.Take(1000)
	if len(c.slept) != 0 {
		t.Fatal("rate 0 must disable pacing")
	}
	var nilPacer *Pacer
	nilPacer.Take(5) // nil-safe no-op
	// burst < 1 is raised to 1 so a whole token can ever accumulate.
	p2 := NewPacer(10, 0, c.Now, c.Sleep)
	p2.Take(1)
	if len(c.slept) != 0 {
		t.Fatalf("first token should be free after burst clamp: %v", c.slept)
	}
}

// paceProbe builds a minimal 20-byte IPv4 header so netsim-style transports
// could parse a destination; the counting transport ignores it.
func paceProbe() []byte { return make([]byte, 28) }

type countingTransport struct {
	exchanges, batches int
}

func (c *countingTransport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	c.exchanges++
	return nil, 0, false
}

func (c *countingTransport) Source() netip.Addr { return netip.MustParseAddr("10.0.0.1") }

type countingBatchTransport struct {
	countingTransport
}

func (c *countingBatchTransport) ExchangeBatch(probes [][]byte, out []ProbeResult) {
	c.batches++
	for i := range probes {
		out[i] = ProbeResult{}
	}
}

func TestPacedTransportTakesPerProbe(t *testing.T) {
	c := newFakeClock()
	inner := &countingTransport{}
	pt := NewPacedTransport(inner, NewPacer(1000, 2, c.Now, c.Sleep))

	pt.Exchange(paceProbe())
	pt.Exchange(paceProbe())
	pt.Exchange(paceProbe()) // third probe exceeds the burst of 2
	if inner.exchanges != 3 {
		t.Fatalf("inner exchanges %d, want 3", inner.exchanges)
	}
	if len(c.slept) != 1 {
		t.Fatalf("slept %v, want exactly one wait", c.slept)
	}
	// ExchangeErr degrades gracefully over a non-fallible inner transport.
	if _, _, _, err := pt.ExchangeErr(paceProbe()); err != nil {
		t.Fatalf("ExchangeErr: %v", err)
	}
}

func TestPacedTransportBatchSingleTake(t *testing.T) {
	c := newFakeClock()
	inner := &countingBatchTransport{}
	pt := NewPacedTransport(inner, NewPacer(100, 4, c.Now, c.Sleep))

	probes := [][]byte{paceProbe(), paceProbe(), paceProbe(), paceProbe(), paceProbe(), paceProbe()}
	out := make([]ProbeResult, len(probes))
	pt.ExchangeBatch(probes, out)
	if inner.batches != 1 {
		t.Fatalf("inner batches %d, want 1 (pass-through)", inner.batches)
	}
	// 6 tokens against a burst of 4: one wait for the 2-token deficit.
	if len(c.slept) != 1 || c.slept[0] != 20*time.Millisecond {
		t.Fatalf("slept %v, want one 20ms wait", c.slept)
	}
}

func TestPacedTransportBatchFallback(t *testing.T) {
	c := newFakeClock()
	inner := &countingTransport{} // no batch support
	pt := NewPacedTransport(inner, NewPacer(1000, 100, c.Now, c.Sleep))
	probes := [][]byte{paceProbe(), paceProbe()}
	out := make([]ProbeResult, 2)
	pt.ExchangeBatch(probes, out)
	if inner.exchanges != 2 {
		t.Fatalf("fallback exchanges %d, want 2", inner.exchanges)
	}
	if pt.Source() != inner.Source() {
		t.Fatal("Source not forwarded")
	}
}
