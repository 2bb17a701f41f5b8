// Package tracer implements the probing engines compared in the paper:
// classic traceroute (UDP port-varying and ICMP Echo sequence-varying, after
// Jacobson's tool and NetBSD traceroute 1.4a5), Toren-style tcptraceroute,
// and Paris traceroute in its UDP, ICMP Echo and TCP variants.
//
// All engines share one Transport (the simulated network, a live one, or a
// replayed capture) and one response-matching pipeline; they differ only in
// the probe bytes they build — how header fields are varied, which is
// precisely the paper's point. No engine says how its responses are to be
// recognised: parseResponse reads that off the probe's own bytes through
// package flowkey, the one definition of which octets identify a probe, which
// the live mux and the replay transport attribute by as well. Every hop record
// carries the three Paris observables: the probe TTL quoted inside ICMP
// errors, the response TTL, and the response IP ID (Section 2.2).
//
// # Determinism and concurrency contract
//
// A trace is a pure function of (the engine's Options as last re-aimed, the
// destination, and the transport's behaviour): what an engine carries from
// one Trace to the next is buffers, never results. One engine serves one
// goroutine — its probe builder and its Scratch recycle those buffers — and
// any number of destinations; goroutines each build their own over a shared
// Transport, which must then be safe for concurrent use (netsim's and the
// live mux's handles are). Probe bytes are built deterministically from
// Options (source port seeding included), so against a transport whose
// responses are a pure function of the probe bytes, two traces of the same
// destination are byte-identical, hop for hop.
//
// A returned Route belongs to the caller. One traced through a Scratch may
// be handed back with Scratch.Recycle when nothing refers to it any more,
// and is then refilled by a later trace; see Scratch and Tracer.
//
// Hop.RTT is whatever the transport reports for the exchange — netsim's
// virtual-clock RTT when dynamics are enabled, its synthetic steps-derived
// latency otherwise, a wall-clock measurement on the live mux — and is
// carried, never interpreted: engines make no timing decisions from it,
// which keeps traces schedule-independent.
//
// # One ladder
//
// There is one TTL ladder (engine.trace), and every transport has one
// exchange method, ExchangeBatch; the free function Exchange is a batch of
// one. Every transport writes a result slot through ProbeResult's three
// writers, Answer, Star and Fail. A probe that failed outright says so in
// its ProbeResult.Err, and only there. Options.Batch only chooses the
// ladder's window: DefaultBatchWindow TTLs (the first window sized by
// PathHint) when it is set, one TTL otherwise, so an unbatched trace never sends a probe past its halting
// hop. The contract is strict equivalence — the Route is byte-identical at
// every window (netsim pins this under its dynamics layer too), so the
// window is purely a throughput decision.
//
// A window is whole TTLs. With ProbesPerHop == 1 (every campaign, the
// daemon, every golden) the unbatched probe sequence on the wire is one
// probe, its answer, the next probe: exactly the classic loop. With
// ProbesPerHop > 1 the attempts of one TTL are submitted together, so a
// failed exchange no longer keeps its sibling attempts from being sent; the
// trace still ends with that error, at that TTL.
package tracer
