package flow

import (
	"fmt"

	"repro/internal/keyhash"
	"repro/internal/packet"
)

// KeyKind selects which header fields form the flow identifier.
type KeyKind int

const (
	// KeyFirstFourOctets hashes Source Address, Destination Address,
	// Protocol, and the first four octets of the transport header —
	// whatever they are (UDP ports; ICMP type/code/checksum; TCP ports).
	// This is the router behaviour the paper reports.
	KeyFirstFourOctets KeyKind = iota
	// KeyFiveTuple hashes the classic five-tuple. For ICMP, which has no
	// ports, it degrades to addresses + protocol only.
	KeyFiveTuple
	// KeyDestination hashes the destination address only (per-destination
	// load balancing, equivalent to classic routing from the measurement
	// point of view).
	KeyDestination
)

// String implements fmt.Stringer for diagnostics.
func (k KeyKind) String() string {
	switch k {
	case KeyFirstFourOctets:
		return "first-four-octets"
	case KeyFiveTuple:
		return "five-tuple"
	case KeyDestination:
		return "destination"
	default:
		return fmt.Sprintf("KeyKind(%d)", int(k))
	}
}

// Options tunes flow-key extraction.
type Options struct {
	Kind KeyKind
}

// Key is a flow identifier extracted from a packet. Two packets with equal
// Keys are guaranteed to take the same path through any per-flow balancer
// configured with the same Options.
type Key struct {
	// src(4) dst(4) proto(1) zero(1) transport(4). The zero octet keeps
	// every balancer's hash, and so every simulated route, as it is.
	raw [14]byte
	n   int
}

// Extract computes the flow key of the serialized IPv4 packet pkt.
// Packets too short to carry four transport octets still yield a key (the
// missing octets are zero), mirroring real routers which hash whatever bytes
// sit at those offsets.
func Extract(pkt []byte, opts Options) (Key, error) {
	var h packet.IPv4
	payload, err := packet.ParseIPv4Into(pkt, &h)
	if err != nil {
		return Key{}, fmt.Errorf("flow: %w", err)
	}
	return FromParsed(&h, payload, opts)
}

// FromParsed computes the flow key from an already-parsed IPv4 header and
// its transport payload. Forwarding engines that parse each packet once
// (netsim's hot path) use this to skip Extract's re-parse.
func FromParsed(h *packet.IPv4, payload []byte, opts Options) (Key, error) {
	var k Key
	dst := h.Dst.As4()
	switch opts.Kind {
	case KeyDestination:
		copy(k.raw[:4], dst[:])
		k.n = 4
		return k, nil
	case KeyFirstFourOctets, KeyFiveTuple:
		src := h.Src.As4()
		copy(k.raw[0:4], src[:])
		copy(k.raw[4:8], dst[:])
		k.raw[8] = h.Protocol
		k.n = 10
		if opts.Kind == KeyFiveTuple && h.Protocol == packet.ProtoICMP {
			// No ports to add.
			return k, nil
		}
		n := 4
		if len(payload) < n {
			n = len(payload)
		}
		copy(k.raw[10:], payload[:n])
		k.n = 14
		return k, nil
	default:
		return Key{}, fmt.Errorf("flow: unknown key kind %v", opts.Kind)
	}
}

// Hash returns a stable 64-bit hash of the key (FNV-1a through the
// inlinable keyhash helper, so the per-forwarding-decision call allocates
// nothing; hash/fnv's New64a heap-allocates its state).
func (k Key) Hash() uint64 {
	return keyhash.FNV1a(keyhash.FNVOffset64, k.raw[:k.n])
}

// Bucket maps the key onto one of n equal-cost next hops.
func (k Key) Bucket(n int) int {
	if n <= 1 {
		return 0
	}
	return int(k.Hash() % uint64(n))
}

// Equal reports whether two keys are identical.
func (k Key) Equal(o Key) bool { return k == o }
