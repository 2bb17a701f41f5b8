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

// countingTransport counts the batches and probes it is handed and answers
// none of them.
type countingTransport struct {
	probes, batches int
}

func (c *countingTransport) ExchangeBatch(probes [][]byte, out []ProbeResult) {
	c.batches++
	c.probes += len(probes)
	for i := range probes {
		out[i] = ProbeResult{}
	}
}

func (c *countingTransport) Source() netip.Addr { return netip.MustParseAddr("10.0.0.1") }

func TestPacedTransportTakesPerProbe(t *testing.T) {
	c := newFakeClock()
	inner := &countingTransport{}
	pt := NewPacedTransport(inner, NewPacer(1000, 2, c.Now, c.Sleep))

	Exchange(pt, paceProbe())
	Exchange(pt, paceProbe())
	Exchange(pt, paceProbe()) // third probe exceeds the burst of 2
	if inner.probes != 3 {
		t.Fatalf("inner exchanges %d, want 3", inner.probes)
	}
	if len(c.slept) != 1 {
		t.Fatalf("slept %v, want exactly one wait", c.slept)
	}
	// Pacing adds no failure of its own.
	out := make([]ProbeResult, 1)
	pt.ExchangeBatch([][]byte{paceProbe()}, out)
	if out[0].Err != nil {
		t.Fatalf("ExchangeBatch: %v", out[0].Err)
	}
}

func TestPacedTransportBatchSingleTake(t *testing.T) {
	c := newFakeClock()
	inner := &countingTransport{}
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
	if pt.Source() != inner.Source() {
		t.Fatal("Source not forwarded")
	}
}

// TestPacerSetRate pins the retuning knob cmd/measured's -rate backs off
// with under mux pressure: a new rate governs refills from the call on,
// tokens accrued before it are kept up to the burst, 0 disables pacing, and
// re-enabling credits nothing for the time pacing was off.
func TestPacerSetRate(t *testing.T) {
	drained := func(rate float64) (*fakeClock, *Pacer) {
		c := newFakeClock()
		p := NewPacer(rate, 5, c.Now, c.Sleep)
		p.Take(5)
		return c, p
	}
	wait := func(c *fakeClock, p *Pacer, n int) time.Duration {
		before := c.asleep
		p.Take(n)
		return c.asleep - before
	}

	t.Run("halved rate doubles the wait", func(t *testing.T) {
		c, p := drained(10)
		full := wait(c, p, 1)
		c, p = drained(10)
		p.SetRate(5)
		if half := wait(c, p, 1); full != 100*time.Millisecond || half != 2*full {
			t.Errorf("waits %v at rate 10 and %v at 5, want 100ms and twice that", full, half)
		}
	})

	t.Run("accrued tokens kept", func(t *testing.T) {
		c, p := drained(10)
		c.now = c.now.Add(200 * time.Millisecond) // 2 tokens at the old rate
		p.SetRate(1)
		if w := wait(c, p, 2); w != 0 {
			t.Errorf("the 2 tokens accrued at the old rate waited %v", w)
		}
		if w := wait(c, p, 1); w != time.Second {
			t.Errorf("the next token waited %v, want 1s at the new rate", w)
		}
	})

	t.Run("accrued tokens capped at the burst", func(t *testing.T) {
		c, p := drained(10)
		c.now = c.now.Add(time.Minute) // 600 tokens at the old rate
		p.SetRate(1)
		if w := wait(c, p, 5); w != 0 {
			t.Errorf("a full bucket waited %v", w)
		}
		if w := wait(c, p, 1); w != time.Second {
			t.Errorf("the token past the burst waited %v, want 1s", w)
		}
	})

	t.Run("rate 0 disables", func(t *testing.T) {
		c, p := drained(10)
		p.SetRate(0)
		if w := wait(c, p, 1000); w != 0 {
			t.Errorf("disabled pacer waited %v", w)
		}
	})

	t.Run("re-enabling credits nothing for the time off", func(t *testing.T) {
		c, p := drained(10)
		p.SetRate(0)
		c.now = c.now.Add(time.Minute)
		p.SetRate(10)
		if w := wait(c, p, 1); w != 100*time.Millisecond {
			t.Errorf("first token after re-enabling waited %v, want 100ms from the drained bucket", w)
		}
	})
}
