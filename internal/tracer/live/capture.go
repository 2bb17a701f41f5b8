package live

import "time"

// CaptureSink receives a copy of every datagram the live layer puts on or
// takes off the wire — the record side of the record/replay workload
// (pcap.Capture is the standard implementation; the replay transport
// consumes what it writes).
//
// The tap is deliberately pre-dedup and pre-attribution: outbound records
// include retransmits and re-sends after a socket reopen, inbound records
// include duplicates, late arrivals for already-resolved probes, and
// unrelated host traffic that the demultiplexer will discard. Replays
// therefore see exactly the traffic the original attribution logic saw.
//
// Implementations must be safe for concurrent use: the mux's reader
// records inbound datagrams while worker batches record their sends. The
// mux guarantees ordering per conversation — a probe is always
// recorded before any response to it — by recording sends before the
// datagrams reach the conn.
type CaptureSink interface {
	// CaptureOutbound records one injected probe (full IPv4 header, as
	// passed to the conn — the IP_HDRINCL bytes).
	CaptureOutbound(ts time.Time, pkt []byte)
	// CaptureInbound records one received datagram exactly as the raw
	// socket delivered it, before demultiplexing or deduplication.
	CaptureInbound(ts time.Time, pkt []byte)
}
