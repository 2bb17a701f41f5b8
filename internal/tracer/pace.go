package tracer

import (
	"net/netip"
	"sync"
	"time"
)

// This file is the global probe pacer: a token-bucket shared by every
// worker of a measurement process, wrapped around any Transport, so the
// aggregate probe rate is a first-class knob instead of an accident of
// worker count. The always-on daemon (internal/daemon) installs one over
// both the netsim and the live transports; clock and sleep seams keep the
// bucket fully testable without wall time.

// Pacer is a token-bucket rate limiter over probes. One Pacer is shared by
// all goroutines probing through the transports it wraps; Take blocks until
// the requested tokens are available. Rate <= 0 disables pacing entirely.
type Pacer struct {
	mu     sync.Mutex
	rate   float64 // tokens (probes) per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	now    func() time.Time
	sleep  func(time.Duration)
}

// NewPacer builds a pacer admitting rate probes per second with the given
// burst capacity (the bucket starts full). burst < 1 is raised to 1 — a
// bucket that can never hold a whole token would block forever. A nil now
// or sleep selects the real clock.
func NewPacer(rate float64, burst float64, now func() time.Time, sleep func(time.Duration)) *Pacer {
	if burst < 1 {
		burst = 1
	}
	if now == nil {
		now = time.Now
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	p := &Pacer{rate: rate, burst: burst, now: now, sleep: sleep}
	p.tokens = burst
	p.last = now()
	return p
}

// Take blocks until n tokens are available and consumes them. Calls larger
// than the burst are still served (the bucket is allowed to go negative by
// the overshoot), so a whole TTL-ladder batch paces as one call instead of
// deadlocking against the bucket size.
func (p *Pacer) Take(n int) {
	if p == nil || p.rate <= 0 || n <= 0 {
		return
	}
	p.mu.Lock()
	p.refill()
	p.tokens -= float64(n)
	if p.tokens >= 0 {
		p.mu.Unlock()
		return
	}
	// Wait out the deficit. The deficit is debited before sleeping, so
	// concurrent Takes queue behind each other's debt instead of all
	// sleeping for the same window and bursting together.
	wait := time.Duration(-p.tokens / p.rate * float64(time.Second))
	p.mu.Unlock()
	p.sleep(wait)
}

// refill credits tokens for the time since the last refill; caller holds mu.
func (p *Pacer) refill() {
	now := p.now()
	if dt := now.Sub(p.last); dt > 0 {
		p.tokens += p.rate * dt.Seconds()
		if p.tokens > p.burst {
			p.tokens = p.burst
		}
	}
	p.last = now
}

// SetRate retunes the admission rate in place. The bucket is settled at
// the old rate first, so already-accrued tokens are kept and the new rate
// only governs refills from now on. This is the graceful-degradation knob
// the live mux's pressure signal drives: halve the rate when the kernel
// reports receive drops, restore it when the pressure clears. A rate <= 0
// disables pacing, exactly as at construction.
func (p *Pacer) SetRate(rate float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rate > 0 {
		p.refill()
	} else {
		p.last = p.now()
	}
	p.rate = rate
}

// PacedTransport wraps a Transport with a shared Pacer: every probe takes
// one token before reaching the inner transport. It forwards the batching
// and fallible capabilities the inner transport offers, so pacing composes
// with the batched ladder and the error-policy layer unchanged.
type PacedTransport struct {
	inner Transport
	batch BatchTransport // inner's batch path (AsBatch)
	pacer *Pacer
}

// NewPacedTransport wraps tp so every probe first takes a token from p.
// Several transports may share one Pacer — that is the point: the bucket
// then caps the whole process's aggregate probe rate.
func NewPacedTransport(tp Transport, p *Pacer) *PacedTransport {
	bt, _ := AsBatch(tp)
	return &PacedTransport{inner: tp, batch: bt, pacer: p}
}

// Exchange implements Transport.
func (t *PacedTransport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	t.pacer.Take(1)
	return t.inner.Exchange(probe)
}

// ExchangeErr implements FallibleTransport when the inner transport does;
// otherwise it degrades to the no-error contract like FaultTransport.
func (t *PacedTransport) ExchangeErr(probe []byte) ([]byte, time.Duration, bool, error) {
	t.pacer.Take(1)
	if ft, ok := t.inner.(FallibleTransport); ok {
		return ft.ExchangeErr(probe)
	}
	resp, rtt, ok := t.inner.Exchange(probe)
	return resp, rtt, ok, nil
}

// ExchangeBatch implements BatchTransport: the whole window takes its
// tokens in one call, pacing batches at the same aggregate rate as
// sequential probes, then goes through the inner transport's batch path.
func (t *PacedTransport) ExchangeBatch(probes [][]byte, out []ProbeResult) {
	if len(out) < len(probes) {
		panic("tracer: ExchangeBatch result slice shorter than probe slice")
	}
	t.pacer.Take(len(probes))
	t.batch.ExchangeBatch(probes, out)
}

// Source implements Transport.
func (t *PacedTransport) Source() netip.Addr { return t.inner.Source() }
