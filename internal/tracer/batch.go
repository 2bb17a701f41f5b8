package tracer

import (
	"fmt"
	"time"
)

// ProbeResult is the outcome of one probe within a batched exchange. A
// transport writes a slot only through its three writers — Answer, Star
// and Fail — each of which sets every field, so a slot recycled from an
// earlier batch keeps nothing of it but its response buffer.
type ProbeResult struct {
	// Resp is the serialized response packet (empty when OK is false).
	// The buffer is owned by the transport's caller and recycled in
	// place across batches: it is valid until the same result slot is
	// passed to the next ExchangeBatch call.
	Resp []byte
	// RTT is the round-trip time (zero when OK is false).
	RTT time.Duration
	// OK is false when no response arrived (a star).
	OK bool
	// Err, when non-nil, means this probe's exchange failed outright (OK
	// is then false and Resp empty): nothing was measured, not even a
	// star. It is the one place a transport reports a failed probe; the
	// ladder ends a trace on the first Err among the hops it consumes, and
	// the free function Exchange, which has no error channel, counts a
	// failure as a star. A failure is plain: nothing above the transport
	// retries it, a run charges the failed pair once. Transports without a
	// failure mode leave it nil.
	Err error
}

// Answer records resp, arriving after rtt, copying it into the slot's own
// buffer.
func (r *ProbeResult) Answer(resp []byte, rtt time.Duration) {
	r.Resp = append(r.Resp[:0], resp...)
	r.RTT, r.OK, r.Err = rtt, true, nil
}

// Star records that no response arrived.
func (r *ProbeResult) Star() {
	r.Resp, r.RTT, r.OK, r.Err = r.Resp[:0], 0, false, nil
}

// Fail records that the exchange failed outright with err.
func (r *ProbeResult) Fail(err error) {
	r.Star()
	r.Err = err
}

// Exchange sends one probe through tp as a batch of one and returns its
// response, the caller owning the buffer. A failed exchange (ProbeResult.Err)
// counts as a star here — its slot holds no bytes and no RTT either; a
// caller that must tell the two apart calls ExchangeBatch and reads Err.
func Exchange(tp Transport, probe []byte) ([]byte, time.Duration, bool) {
	var out [1]ProbeResult
	tp.ExchangeBatch([][]byte{probe}, out[:])
	return out[0].Resp, out[0].RTT, out[0].OK
}

// BatchTransport and FallibleTransport are the single-probe interfaces of
// the earlier transport contract. Only bench/ names them; no program code
// asks for either.
type (
	BatchTransport interface {
		Transport
		Exchange(probe []byte) (resp []byte, rtt time.Duration, ok bool)
	}
	FallibleTransport interface {
		Transport
		ExchangeErr(probe []byte) (resp []byte, rtt time.Duration, ok bool, err error)
	}
)

// DefaultBatchWindow is the TTL-window submitted per batch when the trace
// has no path-length hint. Windows bound the overshoot a batched ladder
// probes past the terminal hop; campaigns feed the previous round's path
// length back as Options.PathHint, which sizes the first window to finish
// most traces in exactly one batch with zero overshoot.
const DefaultBatchWindow = 8

// Scratch holds what a worker reuses from trace to trace: the probe packets,
// the exchange results whose response buffers the transport refills in place,
// the per-TTL attempts, and the Routes given back with Recycle. One Scratch
// serves one worker goroutine (it is not safe for concurrent use) across
// every tracer and destination it probes. A trace through a warmed Scratch
// allocates nothing but its Route, and not that either when a recycled one
// is waiting; a caller that never recycles gets a new Route per trace, as
// without a Scratch.
type Scratch struct {
	probes   [][]byte
	results  []ProbeResult
	attempts []Hop
	free     []*Route
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// grow ensures capacity for n probes without discarding the buffers already
// accumulated in the slots.
func (s *Scratch) grow(n int) {
	for len(s.probes) < n {
		s.probes = append(s.probes, nil)
	}
	for len(s.results) < n {
		s.results = append(s.results, ProbeResult{})
	}
}

// Recycle gives rt back: a later trace through s fills it again instead of
// allocating. The caller must hold the only reference — after Recycle neither
// rt nor its Hops may be read or written again, and anything kept from the
// route must have been copied (Route.Clone) beforehand. A route with a
// per-attempt All table (ProbesPerHop > 1) is left to the collector: its All
// windows alias a per-trace backing array, and that mode is the interactive
// tool's, not the study's. A nil rt is ignored.
func (s *Scratch) Recycle(rt *Route) {
	if rt == nil || rt.All != nil {
		return
	}
	s.free = append(s.free, rt)
}

// route returns the Route a trace fills: the most recently recycled one, or
// a new one whose hop slice is sized from the path hint (DefaultBatchWindow
// without one) and grown on demand — never from MaxTTL, which a route of
// about ten hops would pay for in 38 pointer-carrying slots.
func (s *Scratch) route(o *Options) *Route {
	if n := len(s.free); n > 0 {
		rt := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return rt
	}
	n := o.PathHint
	if n <= 0 {
		n = DefaultBatchWindow
	}
	return &Route{Hops: make([]Hop, 0, max(0, min(n, o.MaxTTL-o.MinTTL+1)))}
}

// trace is the TTL ladder, the only one: it builds a window of whole TTLs
// (every attempt of each), submits them as one ExchangeBatch, and consumes
// the results in TTL order through ladderState, truncating at the first
// terminal hop or star-run boundary. Options.Batch only chooses the window:
// one TTL when it is off (so not one probe goes out past the halting hop),
// DefaultBatchWindow TTLs when it is on, the first window sized by the path
// hint.
// Against a transport whose responses are a pure function of the probe
// bytes the Route is the same at every window;
// TestTraceBatchedMatchesSequential enforces that.
func (e *engine) trace(sc *Scratch, ls *ladderState) error {
	o, dest := ls.opts, ls.rt.Dest

	window, next := 1, 1
	if o.Batch {
		window = DefaultBatchWindow
		// The first window takes the path-length hint, so a stable route is
		// probed in exactly one batch with no overshoot past the terminal hop.
		if next = window; o.PathHint > 0 {
			next = o.PathHint
		}
	}

	probeIdx := 0
	for ttl := o.MinTTL; ttl <= o.MaxTTL; {
		w := next
		next = window
		if rest := o.MaxTTL - ttl + 1; w > rest {
			w = rest
		}
		n := w * o.ProbesPerHop
		sc.grow(n)
		for i, t := 0, ttl; t < ttl+w; t++ {
			for a := 0; a < o.ProbesPerHop; a++ {
				probe, err := e.build(e, dest, t, probeIdx, sc.probes[i])
				probeIdx++
				if err != nil {
					return fmt.Errorf("tracer %s: building probe ttl=%d: %w", e.name, t, err)
				}
				sc.probes[i] = probe
				i++
			}
		}
		res := sc.results[:n]
		e.tp.ExchangeBatch(sc.probes[:n], res)

		for k := 0; k < w; k++ {
			for a := 0; a < o.ProbesPerHop; a++ {
				i := k*o.ProbesPerHop + a
				r := &res[i]
				if r.Err != nil {
					// Results are consumed in TTL order, so the first failed
					// exchange among the hops actually used aborts the trace
					// with the transport's error — transient or fatal per
					// errors.go — and failures in truncated (unconsumed)
					// slots are discarded with the rest of the overshoot.
					return fmt.Errorf("tracer %s: exchange ttl=%d: %w", e.name, ttl+k, r.Err)
				}
				h := Hop{TTL: ttl + k, ProbeTTL: -1}
				if r.OK {
					h = parseResponse(r.Resp, sc.probes[i])
					h.TTL = ttl + k
					h.RTT = r.RTT
				}
				ls.attempts[a] = h
			}
			if ls.step() {
				// Truncate: results past the terminal hop or the
				// star-run boundary are discarded unseen.
				return nil
			}
		}
		ttl += w
	}
	return nil
}
