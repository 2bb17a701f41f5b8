package netsim

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"repro/internal/keyhash"
	"repro/internal/tracer"
)

// This file is the deterministic fault-injection layer the robustness
// machinery is tested against: a transport wrapper that afflicts seeded
// per-destination schedules of transient errors, blackholes, and response
// drops onto any underlying transport. Every schedule is a pure function of
// (plan seed, destination address, per-destination exchange ordinal), so a
// campaign over a faulty network is exactly reproducible — retry, backoff,
// quarantine, and resume logic can be exercised hermetically, with failure
// counts pinned to the exchange, under -race and without a single sleep.

// FaultPlan selects which destinations misbehave and how. Destinations are
// picked by a seeded hash ("every k-th destination"), and each affliction is
// windowed in per-destination exchange ordinals — the running count of
// probes sent toward that destination, retries included — so a fault's
// timing is independent of worker interleaving and batching.
type FaultPlan struct {
	// Seed fixes destination selection. The same seed always afflicts the
	// same destinations with the same schedules.
	Seed int64

	// TransientEvery, when > 0, gives roughly every k-th destination a
	// transient-error window: exchanges whose per-destination ordinal
	// falls in [TransientStart, TransientStart+TransientLen) fail with a
	// transient error (the probe never reaches the network); exchanges
	// outside the window succeed normally. A window shorter than the
	// retry budget models an outage retries ride out.
	TransientEvery int
	TransientStart int
	TransientLen   int

	// BlackholeEvery, when > 0, gives roughly every k-th destination a
	// permanent failure: every exchange from per-destination ordinal
	// BlackholeStart onward fails with a transient error, forever. These
	// destinations exhaust any retry budget and are what the campaign's
	// quarantine policy exists for.
	BlackholeEvery int
	BlackholeStart int

	// DropEvery, when > 0, gives roughly every k-th destination a
	// response-drop burst: exchanges in [DropStart, DropStart+DropLen)
	// complete without error but return no response (stars) — loss, not
	// failure, so the measurement records it rather than retrying.
	DropEvery int
	DropStart int
	DropLen   int

	// PanicEvery, when > 0, gives roughly every k-th destination a panic
	// window: exchanges whose per-destination ordinal falls in
	// [PanicStart, PanicStart+PanicLen) panic instead of forwarding —
	// the hermetic stand-in for a probing bug taking a whole worker
	// goroutine down, which is what the daemon's supervised restart
	// machinery exists for.
	PanicEvery int
	PanicStart int
	PanicLen   int

	// StallEvery, when > 0, gives roughly every k-th destination a stall
	// window: exchanges whose per-destination ordinal falls in
	// [StallStart, StallStart+StallLen) block until ReleaseStalls is
	// called, then resolve as silent drops (stars). This models a wedged
	// transport — the failure the daemon's watchdog detects and abandons
	// — without a single sleep: the blocked goroutine parks on a channel
	// the test closes when it wants the wedge to clear.
	StallEvery int
	StallStart int
	StallLen   int
}

// DestSchedule is one destination's resolved fault schedule.
type DestSchedule struct {
	Transient                    bool
	TransientStart, TransientLen int
	Blackhole                    bool
	BlackholeStart               int
	Drop                         bool
	DropStart, DropLen           int
	Panic                        bool
	PanicStart, PanicLen         int
	Stall                        bool
	StallStart, StallLen         int
}

// ScheduleFor resolves the plan for one destination. It is a pure function
// of (Seed, dst), so tests derive expected failure counts from the same
// schedules the transport enforces.
func (p FaultPlan) ScheduleFor(dst netip.Addr) DestSchedule {
	var s DestSchedule
	k, ok := a4(dst)
	if !ok {
		return s
	}
	h := keyhash.Mix64(uint64(p.Seed) ^ uint64(k))
	if p.TransientEvery > 0 && h%uint64(p.TransientEvery) == 0 {
		s.Transient = true
		s.TransientStart, s.TransientLen = p.TransientStart, p.TransientLen
	}
	h = keyhash.Mix64(h)
	if p.BlackholeEvery > 0 && h%uint64(p.BlackholeEvery) == 0 {
		s.Blackhole = true
		s.BlackholeStart = p.BlackholeStart
	}
	h = keyhash.Mix64(h)
	if p.DropEvery > 0 && h%uint64(p.DropEvery) == 0 {
		s.Drop = true
		s.DropStart, s.DropLen = p.DropStart, p.DropLen
	}
	h = keyhash.Mix64(h)
	if p.PanicEvery > 0 && h%uint64(p.PanicEvery) == 0 {
		s.Panic = true
		s.PanicStart, s.PanicLen = p.PanicStart, p.PanicLen
	}
	h = keyhash.Mix64(h)
	if p.StallEvery > 0 && h%uint64(p.StallEvery) == 0 {
		s.Stall = true
		s.StallStart, s.StallLen = p.StallStart, p.StallLen
	}
	return s
}

// faultKind is the per-exchange decision.
type faultKind int

const (
	faultNone  faultKind = iota
	faultErr             // transient error: the exchange did not happen
	faultStar            // silent drop: the exchange happened, no response
	faultPanic           // injected panic: takes the probing goroutine down
	faultStall           // wedge: block until ReleaseStalls, then a star
)

// destFaults is the per-destination runtime state: the resolved schedule and
// the exchange ordinal counter it is indexed by.
type destFaults struct {
	sched   DestSchedule
	ordinal int
}

// FaultTransport wraps any tracer transport with a FaultPlan. It implements
// tracer.Transport, tracer.BatchTransport (batched exchanges pass the
// unafflicted probes through the inner transport's batch path in order), and
// tracer.FallibleTransport (injected transient errors surface through
// ExchangeErr and ProbeResult.Err with the tracer taxonomy).
//
// FaultTransport is safe for concurrent use; the per-destination ordinal
// counters are guarded by one mutex, which is off the forwarding hot path
// (one map access per probe).
type FaultTransport struct {
	inner tracer.Transport
	batch tracer.BatchTransport // inner's batch path (tracer.AsBatch)
	plan  FaultPlan

	mu    sync.Mutex
	dests map[uint32]*destFaults
	// errs, drops, panics, and stalls tally the injected faults, for
	// test assertions.
	errs, drops, panics, stalls int
	// stallC parks stalled exchanges; ReleaseStalls closes it (once).
	stallC    chan struct{}
	stallOnce sync.Once
}

// WrapFaults afflicts tp with the plan's fault schedules.
func WrapFaults(tp tracer.Transport, plan FaultPlan) *FaultTransport {
	bt, _ := tracer.AsBatch(tp)
	return &FaultTransport{
		inner: tp, batch: bt, plan: plan,
		dests:  make(map[uint32]*destFaults),
		stallC: make(chan struct{}),
	}
}

// InjectedErrors returns how many exchanges failed with an injected
// transient error so far.
func (t *FaultTransport) InjectedErrors() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.errs
}

// InjectedDrops returns how many responses were silently dropped so far.
func (t *FaultTransport) InjectedDrops() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}

// InjectedPanics returns how many exchanges panicked so far.
func (t *FaultTransport) InjectedPanics() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.panics
}

// InjectedStalls returns how many exchanges were wedged so far (released
// or still parked).
func (t *FaultTransport) InjectedStalls() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stalls
}

// ReleaseStalls unwedges every parked exchange, now and forever: stalled
// exchanges resolve as silent drops (stars), and future stall-window hits
// fall straight through as drops. Safe to call more than once.
func (t *FaultTransport) ReleaseStalls() {
	t.stallOnce.Do(func() { close(t.stallC) })
}

// stall parks the calling goroutine until ReleaseStalls. It is called
// outside t.mu — a wedged exchange must never wedge the ordinal counters.
func (t *FaultTransport) stall() {
	<-t.stallC
}

// decide consumes one exchange ordinal for the probe's destination and
// returns the fault applied to it.
func (t *FaultTransport) decide(probe []byte) faultKind {
	if len(probe) < 20 {
		return faultNone
	}
	dst := netip.AddrFrom4([4]byte(probe[16:20]))
	k, ok := a4(dst)
	if !ok {
		return faultNone
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	df := t.dests[k]
	if df == nil {
		df = &destFaults{sched: t.plan.ScheduleFor(dst)}
		t.dests[k] = df
	}
	ord := df.ordinal
	df.ordinal++
	s := df.sched
	switch {
	case s.Panic && ord >= s.PanicStart && ord < s.PanicStart+s.PanicLen:
		t.panics++
		return faultPanic
	case s.Stall && ord >= s.StallStart && ord < s.StallStart+s.StallLen:
		t.stalls++
		return faultStall
	case s.Blackhole && ord >= s.BlackholeStart:
		t.errs++
		return faultErr
	case s.Transient && ord >= s.TransientStart && ord < s.TransientStart+s.TransientLen:
		t.errs++
		return faultErr
	case s.Drop && ord >= s.DropStart && ord < s.DropStart+s.DropLen:
		t.drops++
		return faultStar
	}
	return faultNone
}

// panicFor raises the injected panic for a probe's destination.
func panicFor(probe []byte) {
	panic(fmt.Sprintf("netsim: injected panic toward %v", netip.AddrFrom4([4]byte(probe[16:20]))))
}

// errFor builds the injected error for a probe's destination.
func errFor(probe []byte) error {
	return tracer.Transient(fmt.Errorf("netsim: injected fault toward %v", netip.AddrFrom4([4]byte(probe[16:20]))))
}

// Exchange implements tracer.Transport: injected errors degrade to stars,
// matching the interface's no-error contract. Fault-aware callers use
// ExchangeErr or the batch path.
func (t *FaultTransport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	resp, rtt, ok, err := t.ExchangeErr(probe)
	if err != nil {
		return nil, 0, false
	}
	return resp, rtt, ok
}

// ExchangeErr implements tracer.FallibleTransport.
func (t *FaultTransport) ExchangeErr(probe []byte) ([]byte, time.Duration, bool, error) {
	switch t.decide(probe) {
	case faultErr:
		return nil, 0, false, errFor(probe)
	case faultStar:
		return nil, 0, false, nil
	case faultPanic:
		panicFor(probe)
	case faultStall:
		t.stall()
		return nil, 0, false, nil
	}
	resp, rtt, ok := t.inner.Exchange(probe)
	return resp, rtt, ok, nil
}

// ExchangeBatch implements tracer.BatchTransport: afflicted probes resolve
// in place (Err for injected errors, a star for drops) and the remainder
// passes through the inner transport's batch path (tracer.AsBatch) in
// submission order.
func (t *FaultTransport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	if len(out) < len(probes) {
		panic("netsim: ExchangeBatch result slice shorter than probe slice")
	}
	kinds := make([]faultKind, len(probes))
	pass := make([][]byte, 0, len(probes))
	idxs := make([]int, 0, len(probes))
	for i, p := range probes {
		kinds[i] = t.decide(p)
		switch kinds[i] {
		case faultPanic:
			// Panic at the probe's position, before later probes consume
			// ordinals — the same point the sequential path panics at.
			panicFor(p)
		case faultStall:
			// Wedge here, like the sequential path; once released the
			// probe resolves as a silent drop.
			t.stall()
			kinds[i] = faultStar
		case faultNone:
			pass = append(pass, p)
			idxs = append(idxs, i)
		}
	}
	for i := range probes {
		if kinds[i] == faultNone {
			continue
		}
		if out[i].Resp != nil {
			out[i].Resp = out[i].Resp[:0]
		}
		out[i].RTT = 0
		out[i].OK = false
		if kinds[i] == faultErr {
			out[i].Err = errFor(probes[i])
		} else {
			out[i].Err = nil
		}
	}
	if len(pass) == 0 {
		return
	}
	if len(pass) == len(probes) {
		t.batch.ExchangeBatch(probes, out)
		return
	}
	sub := make([]tracer.ProbeResult, len(pass))
	for j, i := range idxs {
		sub[j] = tracer.ProbeResult{Resp: out[i].Resp[:0:cap(out[i].Resp)]}
	}
	t.batch.ExchangeBatch(pass, sub)
	for j, i := range idxs {
		out[i] = sub[j]
	}
}

// Source implements tracer.Transport.
func (t *FaultTransport) Source() netip.Addr { return t.inner.Source() }
