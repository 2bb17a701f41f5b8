package measure

import (
	"fmt"
	"net/netip"

	"repro/internal/tracer"
)

// This file is the one pair-measurement entry point, shared by the campaign
// and the always-on daemon (internal/daemon): a Prober per worker performs
// one paired classic+Paris trace toward one destination, with the paper's
// flow-identifier derivation and the path-length hints, so the two runtimes
// cannot drift apart in probing methodology.

// PathHints carries a destination's previous ladder lengths between pairs:
// a trace sizes its route from the hint and a batched one its first TTL
// window too, so a stable route is probed in exactly one batch with no
// overshoot. The zero value means "no hint" (the tracer uses its defaults).
type PathHints struct {
	Paris, Classic int
}

// ProbeConfig is the probing shape a Prober applies to every pair; the
// fields mirror the campaign Config's probing subset and share its
// defaults. Every trace stops at the paper's 39 hops or 8 consecutive
// stars.
type ProbeConfig struct {
	// MinTTL skips the local network (the paper sets 2). Zero selects 2.
	MinTTL int
	// PortSeed derives the per-destination Paris flow identifiers and the
	// classic tracer's per-(round, destination) pseudo-PID source port.
	PortSeed int64
	// Batch widens the TTL ladder's window to tracer.DefaultBatchWindow;
	// see tracer.Options.Batch.
	Batch bool
}

// The paper's trace bounds (Section 3): no trace extends beyond 39 hops, and
// eight consecutive stars end one.
const (
	maxTTL   = 39
	maxStars = 8
)

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.MinTTL <= 0 {
		c.MinTTL = 2
	}
	return c
}

// Prober measures paired traces one destination at a time. It builds its
// Paris and its classic tracer once and re-aims them per pair, and both
// trace through one tracer.Scratch, so it is not safe for concurrent use:
// give each worker goroutine its own.
//
// The routes of a returned Pair belong to the caller. A caller that is done
// with them — everything it keeps copied out — may hand them back with
// Recycle; one that retains pairs (Results.Rounds) simply never does.
type Prober struct {
	seed           int64
	scratch        *tracer.Scratch
	paris, classic tracer.Tracer
	// onRecycle, when a test sets it, sees every pair at the moment its
	// routes are given back (the poison suite scribbles over them).
	onRecycle func(*Pair)
}

// NewProber builds a Prober over tp with the given probing shape.
func NewProber(tp tracer.Transport, cfg ProbeConfig) *Prober {
	cfg = cfg.withDefaults()
	return newProber(tp, cfg.PortSeed, tracer.Options{
		MinTTL:              cfg.MinTTL,
		MaxTTL:              maxTTL,
		MaxConsecutiveStars: maxStars,
		Batch:               cfg.Batch,
	})
}

// newProber is NewProber over explicit trace options (tests reach the
// options ProbeConfig does not expose through it).
func newProber(tp tracer.Transport, seed int64, base tracer.Options) *Prober {
	base.Scratch = tracer.NewScratch()
	return &Prober{
		seed:    seed,
		scratch: base.Scratch,
		paris:   tracer.NewParisUDP(tp, base),
		classic: tracer.NewClassicUDP(tp, base),
	}
}

// MeasurePair performs the paper's two steps toward dest, attributed to the
// given round: a Paris traceroute with an unchanging five-tuple, then a
// classic traceroute with the same timing parameters, taken close together
// in time to minimise routing-dynamics skew (Section 4.1.2). h supplies the
// destination's previous ladder lengths and, on success, receives the new
// ones; pass the same PathHints for the same destination across calls.
func (p *Prober) MeasurePair(dest netip.Addr, round int, h *PathHints) (Pair, error) {
	p.paris.Aim(portFor(p.seed, dest, 0x517e), portFor(p.seed, dest, 0xd057), h.Paris)
	pr, err := p.paris.Trace(dest)
	if err != nil {
		return Pair{}, fmt.Errorf("measure: paris trace to %v: %w", dest, err)
	}

	// Classic traceroute sets its Source Port to PID + 32768; every
	// invocation is a fresh process, so the port — part of the flow
	// identifier — changes per trace. Emulate with a per-(round, dest)
	// pseudo-PID.
	pid := portFor(p.seed, dest, uint64(round)*0x9e37+0xc1a5) % 30000
	p.classic.Aim(32768+pid, 0, h.Classic)
	cr, err := p.classic.Trace(dest)
	if err != nil {
		// The Paris route never left this worker.
		p.Recycle(&Pair{Paris: pr})
		return Pair{}, fmt.Errorf("measure: classic trace to %v: %w", dest, err)
	}
	*h = PathHints{Paris: len(pr.Hops), Classic: len(cr.Hops)}
	return Pair{Dest: dest, Round: round, Paris: pr, Classic: cr}, nil
}

// Recycle gives both routes of a pair this Prober measured back to its
// Scratch and clears them from the pair. The caller must hold the only
// references (tracer.Scratch.Recycle); Failed and Skipped pairs have none.
func (p *Prober) Recycle(pair *Pair) {
	if p.onRecycle != nil {
		p.onRecycle(pair)
	}
	p.scratch.Recycle(pair.Paris)
	p.scratch.Recycle(pair.Classic)
	pair.Paris, pair.Classic = nil, nil
}
