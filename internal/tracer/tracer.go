package tracer

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/keyhash"
)

// Transport carries serialized IPv4 probes to the network under measurement
// and returns the serialized response packet, if any.
type Transport interface {
	// Exchange sends one probe and blocks until its response arrives or
	// the transport-level timeout passes (ok=false: a star).
	Exchange(probe []byte) (resp []byte, rtt time.Duration, ok bool)
	// Source returns the local address probes are sent from.
	Source() netip.Addr
}

// ReplyKind classifies the response to a probe.
type ReplyKind int

const (
	KindNone ReplyKind = iota // no response: a star ('*')
	KindTimeExceeded
	KindPortUnreachable
	KindHostUnreachable
	KindNetUnreachable
	KindOtherUnreachable
	KindEchoReply
	KindTCPReset
	KindTCPSynAck
)

// String implements fmt.Stringer.
func (k ReplyKind) String() string {
	switch k {
	case KindNone:
		return "*"
	case KindTimeExceeded:
		return "time-exceeded"
	case KindPortUnreachable:
		return "port-unreachable"
	case KindHostUnreachable:
		return "host-unreachable"
	case KindNetUnreachable:
		return "net-unreachable"
	case KindOtherUnreachable:
		return "unreachable"
	case KindEchoReply:
		return "echo-reply"
	case KindTCPReset:
		return "tcp-rst"
	case KindTCPSynAck:
		return "tcp-synack"
	default:
		return fmt.Sprintf("ReplyKind(%d)", int(k))
	}
}

// Terminal reports whether this reply ends a trace: the destination was
// reached or an unreachability message arrived.
func (k ReplyKind) Terminal() bool {
	switch k {
	case KindPortUnreachable, KindHostUnreachable, KindNetUnreachable,
		KindOtherUnreachable, KindEchoReply, KindTCPReset, KindTCPSynAck:
		return true
	}
	return false
}

// Flag returns the traceroute output annotation for the reply ("!H", "!N",
// "!P", or "").
func (k ReplyKind) Flag() string {
	switch k {
	case KindHostUnreachable:
		return "!H"
	case KindNetUnreachable:
		return "!N"
	case KindOtherUnreachable:
		return "!X"
	default:
		return ""
	}
}

// Hop records one probe/response exchange.
type Hop struct {
	// TTL is the probe's initial TTL (the hop number).
	TTL int
	// Addr is the responder's source address; invalid for a star.
	Addr netip.Addr
	// RTT is the round-trip time (zero for a star).
	RTT time.Duration
	// Kind classifies the response.
	Kind ReplyKind
	// ProbeTTL is the TTL of the quoted probe inside an ICMP error: the
	// probe's TTL when the responding router received and discarded it.
	// Normal value is 1; 0 signals zero-TTL forwarding upstream (Fig. 4).
	// -1 when the response carries no quote (e.g. TCP resets).
	ProbeTTL int
	// RespTTL is the TTL of the response packet itself on arrival, used
	// to infer return-path length and to detect address rewriting.
	RespTTL int
	// IPID is the IP Identification of the response packet — the
	// responding box's internal counter.
	IPID uint16
	// Mismatched is set when a response arrived but is not this probe's,
	// by the one attribution rule (package flowkey).
	Mismatched bool
}

// Star reports whether no response was received.
func (h Hop) Star() bool { return h.Kind == KindNone }

// String renders the hop roughly the way traceroute prints it.
func (h Hop) String() string {
	if h.Star() {
		return fmt.Sprintf("%2d  *", h.TTL)
	}
	s := fmt.Sprintf("%2d  %s  %.3f ms", h.TTL, h.Addr, float64(h.RTT.Microseconds())/1000)
	if f := h.Kind.Flag(); f != "" {
		s += "  " + f
	}
	return s
}

// HaltReason records why a trace ended.
type HaltReason int

const (
	HaltDestination HaltReason = iota // destination responded
	HaltUnreachable                   // ICMP Destination Unreachable
	HaltStars                         // too many consecutive stars
	HaltMaxTTL                        // ran out of hops
)

// String implements fmt.Stringer.
func (h HaltReason) String() string {
	switch h {
	case HaltDestination:
		return "destination"
	case HaltUnreachable:
		return "unreachable"
	case HaltStars:
		return "stars"
	case HaltMaxTTL:
		return "max-ttl"
	default:
		return fmt.Sprintf("HaltReason(%d)", int(h))
	}
}

// Route is the result of one traceroute: one Hop per TTL probed (the first
// response at each TTL), in TTL order. When Options.ProbesPerHop > 1, All
// holds every attempt.
type Route struct {
	Dest   netip.Addr
	Source netip.Addr
	Hops   []Hop
	All    [][]Hop
	Halt   HaltReason
}

// addrWord flattens an IPv4 address into a hashable word; the zero word
// stands for the invalid address of a star hop.
func addrWord(a netip.Addr) uint64 {
	if !a.IsValid() {
		return 0
	}
	b := a.As4()
	return 1<<32 | uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
}

// Fingerprint returns a cheap FNV-1a hash over the route's path
// observables: destination, source, halt reason, and every hop's TTL,
// responder address, reply kind, quoted probe TTL, response TTL and match
// flag. It folds whole words rather than bytes, which keeps the FNV mixing
// structure at a fraction of the per-byte cost. Three per-exchange
// quantities are deliberately excluded — RTTs, the response IP IDs (each responder's counter advances on every reply,
// so no two rounds ever agree on them), and the per-attempt All table —
// because a path that forwarded identically must fingerprint identically
// round over round; that stability is what campaign accumulators intern
// on. Routes that compare Equal always share a fingerprint; the
// accumulator verifies fingerprint hits with Equal, and re-evaluates the
// two classification rules that do consult IP IDs against the current
// round's route (see the measure package's streaming contract).
func (r *Route) Fingerprint() uint64 {
	h := keyhash.FNVOffset64
	h = (h ^ addrWord(r.Dest)) * keyhash.FNVPrime64
	h = (h ^ addrWord(r.Source)) * keyhash.FNVPrime64
	h = (h ^ uint64(r.Halt)) * keyhash.FNVPrime64
	h = (h ^ uint64(len(r.Hops))) * keyhash.FNVPrime64
	for i := range r.Hops {
		hp := &r.Hops[i]
		h = (h ^ uint64(uint32(hp.TTL))) * keyhash.FNVPrime64
		h = (h ^ addrWord(hp.Addr)) * keyhash.FNVPrime64
		w := uint64(uint32(hp.Kind))<<24 |
			uint64(uint8(hp.ProbeTTL))<<16 | uint64(uint8(hp.RespTTL))<<8
		if hp.Mismatched {
			w |= 1
		}
		h = (h ^ w) * keyhash.FNVPrime64
	}
	return h
}

// Equal reports whether two routes carry identical path observables: same
// destination, source, halt reason, and hop-for-hop identical TTL,
// address, reply kind, probe TTL, response TTL and match flag. RTTs, IP
// IDs and the per-attempt All table are ignored for the reasons
// Fingerprint documents: they differ between exchanges even when the path
// did not.
func (r *Route) Equal(o *Route) bool {
	if r == o {
		return true
	}
	if r == nil || o == nil {
		return false
	}
	if r.Dest != o.Dest || r.Source != o.Source || r.Halt != o.Halt ||
		len(r.Hops) != len(o.Hops) {
		return false
	}
	for i := range r.Hops {
		a, b := &r.Hops[i], &o.Hops[i]
		if a.TTL != b.TTL || a.Addr != b.Addr || a.Kind != b.Kind ||
			a.ProbeTTL != b.ProbeTTL || a.RespTTL != b.RespTTL ||
			a.Mismatched != b.Mismatched {
			return false
		}
	}
	return true
}

// Clone returns a deep copy that shares no memory with r, with every slice
// at its exact length: what a holder keeps of a route it is about to give
// back (Scratch.Recycle), or keeps for long. All's rows are carved from one
// backing array, as a trace lays them out.
func (r *Route) Clone() *Route {
	c := *r
	c.Hops = make([]Hop, len(r.Hops))
	copy(c.Hops, r.Hops)
	if r.All != nil {
		n := 0
		for _, row := range r.All {
			n += len(row)
		}
		backing := make([]Hop, 0, n)
		c.All = make([][]Hop, len(r.All))
		for i, row := range r.All {
			s := len(backing)
			backing = append(backing, row...)
			c.All[i] = backing[s:len(backing):len(backing)]
		}
	}
	return &c
}

// Addresses returns the measured route as the paper defines it
// (Section 4): the ℓ-tuple of responding addresses, with invalid entries
// for stars, indexed from the first probed TTL.
func (r *Route) Addresses() []netip.Addr {
	out := make([]netip.Addr, len(r.Hops))
	for i, h := range r.Hops {
		out[i] = h.Addr
	}
	return out
}

// Reached reports whether the destination itself answered.
func (r *Route) Reached() bool { return r.Halt == HaltDestination }

// Options configures a trace.
type Options struct {
	// MinTTL is the first TTL probed. The paper's study sets 2 to skip
	// the university network. Default 1.
	MinTTL int
	// MaxTTL bounds the trace length. The paper's study uses 39.
	// Default 30.
	MaxTTL int
	// ProbesPerHop is the number of probes per TTL. Classic traceroute
	// defaults to 3; the paper's study sends 1. Default 1.
	ProbesPerHop int
	// MaxConsecutiveStars halts the trace after this many consecutive
	// non-responses. The paper uses 8. Default 8.
	MaxConsecutiveStars int
	// SrcPort and DstPort seed the transport ports. Their exact meaning
	// depends on the engine: classic UDP increments DstPort per probe;
	// Paris keeps both fixed (they define the flow). Zero values select
	// each engine's historical default.
	SrcPort, DstPort uint16
	// ICMPID is the Echo Identifier for classic ICMP probes (classically
	// the process ID). For Paris ICMP it is the checksum target.
	ICMPID uint16
	// Batch widens the ladder's window when the transport implements
	// BatchTransport: the engine submits BatchWindow TTLs as one
	// ExchangeBatch and truncates at the first terminal hop or star-run
	// boundary. Off, or over a transport without batching, the window is
	// one TTL. Off by default.
	Batch bool
	// BatchWindow is the number of TTLs submitted per batch (0 selects
	// DefaultBatchWindow). Ignored unless Batch is set.
	BatchWindow int
	// PathHint is the expected ladder length (in TTLs), typically the
	// previous round's len(Route.Hops) for the same destination. It sizes
	// the route's hop slice and, when batching, the first window: a
	// correct hint makes the whole trace one batch with no probes wasted
	// past the terminal hop. 0 means no hint.
	PathHint int
	// Scratch supplies the trace's reusable buffers and its Route (see
	// Scratch). One Scratch must serve at most one goroutine; nil makes
	// every trace allocate its own.
	Scratch *Scratch
}

func (o Options) withDefaults() Options {
	if o.MinTTL <= 0 {
		o.MinTTL = 1
	}
	if o.MaxTTL <= 0 {
		o.MaxTTL = 30
	}
	if o.ProbesPerHop <= 0 {
		o.ProbesPerHop = 1
	}
	if o.MaxConsecutiveStars <= 0 {
		o.MaxConsecutiveStars = 8
	}
	return o
}

// Tracer runs traceroutes using a specific probing discipline. A Tracer is
// not safe for concurrent use (its probe builder recycles scratch buffers
// between probes); construct one per goroutine and reuse it — nothing about
// a Tracer is tied to one destination.
//
// Route lifetime: the caller owns the returned Route. A trace that was given
// a Scratch may have drawn the Route from it, and the caller may hand it back
// with Scratch.Recycle once nothing refers to it any more; a caller that
// never recycles keeps every route for as long as it likes.
type Tracer interface {
	// Trace measures the route from the transport's source to dest.
	Trace(dest netip.Addr) (*Route, error)
	// Name identifies the discipline ("classic-udp", "paris-udp", ...).
	Name() string
	// Aim sets the flow ports and the path hint of the traces that follow,
	// as Options.SrcPort, DstPort and PathHint would have at construction
	// (zero ports select the engine's defaults; the ICMP engines have no
	// ports and take only the hint). It lets one Tracer serve a campaign
	// worker for every destination and round.
	Aim(srcPort, dstPort uint16, pathHint int)
}

// engine is the shared trace loop; each discipline supplies a prober.
type engine struct {
	name string
	// bt is the transport's batch path (AsBatch); native says it is the
	// transport's own, so a window wider than one TTL is worth submitting.
	bt     BatchTransport
	native bool
	src    netip.Addr
	opts   Options
	build  proberFunc
	// defSrc and defDst are the discipline's historical default ports.
	defSrc, defDst uint16
	// payload and dgram are the UDP builders' scratch, recycled across
	// probes (classic UDP's payload is all-zero and read-only).
	payload, dgram []byte
}

// proberFunc returns the serialized probe for the given TTL and global
// probe index: the discipline's transport bytes inside engine.wrap's IPv4
// header. Its response is recognised from those bytes alone (parseResponse).
// buf, when non-nil, offers a recycled buffer the probe may be marshaled into
// (the returned probe then aliases it); the builder allocates otherwise.
type proberFunc func(e *engine, dest netip.Addr, ttl, probeIdx int, buf []byte) (probe []byte, err error)

func newEngine(name string, tp Transport, opts Options, defSrc, defDst uint16, build proberFunc) *engine {
	e := &engine{name: name, src: tp.Source(), opts: opts.withDefaults(),
		build: build, defSrc: defSrc, defDst: defDst}
	e.bt, e.native = AsBatch(tp)
	e.Aim(opts.SrcPort, opts.DstPort, opts.PathHint)
	return e
}

// Aim implements Tracer.
func (e *engine) Aim(srcPort, dstPort uint16, pathHint int) {
	if srcPort == 0 {
		srcPort = e.defSrc
	}
	if dstPort == 0 {
		dstPort = e.defDst
	}
	e.opts.SrcPort, e.opts.DstPort, e.opts.PathHint = srcPort, dstPort, pathHint
}

// haltFor classifies the halt reason of a terminal TTL. The hop actually
// recorded for the TTL (first) decides: an echo reply recorded at this hop
// is HaltDestination even when a sibling attempt drew an unreachable. Only
// when the recorded hop is itself non-terminal (a star or an upstream Time
// Exceeded alongside a terminal sibling) does the earliest terminal attempt
// classify instead.
func haltFor(first Hop, attempts []Hop) HaltReason {
	pick := first
	if !pick.Kind.Terminal() {
		for _, h := range attempts {
			if h.Kind.Terminal() {
				pick = h
				break
			}
		}
	}
	switch pick.Kind {
	case KindHostUnreachable, KindNetUnreachable, KindOtherUnreachable:
		return HaltUnreachable
	}
	return HaltDestination
}

// ladderState is the ladder's per-TTL bookkeeping: the route itself, hop
// selection, the All backing array, star-run counting, and halt
// classification all live here.
type ladderState struct {
	rt    *Route
	opts  *Options
	stars int
	// attempts is the per-TTL scratch the ladder fills and step consumes.
	attempts []Hop
	// backing holds every attempt of the trace contiguously when
	// ProbesPerHop > 1; rt.All carves windows out of it instead of
	// growing one slice per TTL attempt by attempt.
	backing []Hop
}

// begin starts a trace toward dest: with or without a caller's Scratch, the
// ladder gets its Route and its attempts scratch here.
func (e *engine) begin(sc *Scratch, dest netip.Addr) ladderState {
	o := &e.opts
	rt := sc.route(o)
	*rt = Route{Dest: dest, Source: e.src, Halt: HaltMaxTTL, Hops: rt.Hops[:0]}
	ls := ladderState{rt: rt, opts: o}
	if o.ProbesPerHop > 1 {
		ladder := o.MaxTTL - o.MinTTL + 1
		ls.backing = make([]Hop, 0, ladder*o.ProbesPerHop)
		rt.All = make([][]Hop, 0, ladder)
	}
	if cap(sc.attempts) < o.ProbesPerHop {
		sc.attempts = make([]Hop, o.ProbesPerHop)
	}
	ls.attempts = sc.attempts[:o.ProbesPerHop]
	return ls
}

// step consumes one TTL's attempts (step copies what it keeps) and reports
// whether the trace halts here, with rt.Halt set.
func (ls *ladderState) step() bool {
	attempts := ls.attempts
	first := attempts[0]
	for _, h := range attempts {
		if !h.Star() {
			first = h
			break
		}
	}
	ls.rt.Hops = append(ls.rt.Hops, first)
	if ls.opts.ProbesPerHop > 1 {
		s := len(ls.backing)
		ls.backing = append(ls.backing, attempts...)
		ls.rt.All = append(ls.rt.All, ls.backing[s:len(ls.backing):len(ls.backing)])
	}
	if first.Star() {
		ls.stars++
	} else {
		ls.stars = 0
	}
	terminal := false
	for _, h := range attempts {
		if h.Kind.Terminal() {
			terminal = true
			break
		}
	}
	if terminal {
		ls.rt.Halt = haltFor(first, attempts)
		return true
	}
	if ls.stars >= ls.opts.MaxConsecutiveStars {
		ls.rt.Halt = HaltStars
		return true
	}
	return false
}

// Trace implements Tracer.
func (e *engine) Trace(dest netip.Addr) (*Route, error) {
	sc := e.opts.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	ls := e.begin(sc, dest)
	if err := e.trace(sc, &ls); err != nil {
		// The unfinished route never left the trace; keep it for the next.
		sc.Recycle(ls.rt)
		return nil, err
	}
	return ls.rt, nil
}

// Name implements Tracer.
func (e *engine) Name() string { return e.name }
