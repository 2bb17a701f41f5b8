package tracer

import (
	"fmt"
	"time"
)

// ProbeResult is the outcome of one probe within a batched exchange.
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
	// star. Errors follow the package taxonomy — IsTransient reports
	// whether a retry may succeed. Transports without a failure mode
	// leave it nil.
	Err error
}

// BatchTransport is implemented by transports that can carry a whole batch
// of probes — a TTL ladder toward one destination — in one call, amortizing
// the per-exchange overhead. The semantics of the batch are exactly those of
// len(probes) sequential Exchange calls in slice order (netsim guarantees
// this byte-for-byte by reserving a contiguous probe-counter block; see the
// netsim package comment's exchange contract).
type BatchTransport interface {
	Transport
	// ExchangeBatch exchanges probes[i] into out[i] for every i; out must
	// be at least as long as probes. Implementations refill out[i].Resp
	// with append-truncate, so callers reusing one result slice across
	// batches amortize the response buffers too.
	ExchangeBatch(probes [][]byte, out []ProbeResult)
}

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

// perProbe is the batch path of a transport that has none: the probes are
// exchanged one at a time in slice order, through ExchangeErr when the
// transport is fallible, so a failed exchange lands in its ProbeResult.Err
// instead of reading as a star.
type perProbe struct {
	Transport
	fall FallibleTransport // nil when the transport cannot fail
}

func (p perProbe) ExchangeBatch(probes [][]byte, out []ProbeResult) {
	for i, probe := range probes {
		r := &out[i]
		var resp []byte
		if p.fall != nil {
			resp, r.RTT, r.OK, r.Err = p.fall.ExchangeErr(probe)
		} else {
			resp, r.RTT, r.OK = p.Exchange(probe)
			r.Err = nil
		}
		r.OK = r.OK && r.Err == nil
		r.Resp = r.Resp[:0]
		if r.OK {
			r.Resp = append(r.Resp, resp...)
		}
	}
}

// AsBatch returns tp's batch path, and whether it is tp's own: tp itself when
// it implements BatchTransport, else the per-probe loop above. It is the one
// place that decides between the two; the ladder and the wrapping transports
// (PacedTransport, netsim.FaultTransport) ask it once, at construction.
func AsBatch(tp Transport) (bt BatchTransport, native bool) {
	if bt, ok := tp.(BatchTransport); ok {
		return bt, true
	}
	fall, _ := tp.(FallibleTransport)
	return perProbe{tp, fall}, false
}

// trace is the TTL ladder, the only one: it builds a window of whole TTLs
// (every attempt of each), submits them as one ExchangeBatch, and consumes
// the results in TTL order through ladderState, truncating at the first
// terminal hop or star-run boundary. Options.Batch only chooses the window:
// one TTL when it is off or the transport has no batch path of its own (so
// not one probe goes out past the halting hop), BatchWindow TTLs otherwise,
// the first window sized by the path hint. Against a transport whose
// responses are a pure function of the probe bytes the Route is the same at
// every window; TestTraceBatchedMatchesSequential enforces that.
func (e *engine) trace(sc *Scratch, ls *ladderState) error {
	o, dest := ls.opts, ls.rt.Dest

	window, next := 1, 1
	if o.Batch && e.native {
		if window = o.BatchWindow; window <= 0 {
			window = DefaultBatchWindow
		}
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
		e.bt.ExchangeBatch(sc.probes[:n], res)

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
