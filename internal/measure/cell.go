package measure

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"repro/internal/ckpt"
	"repro/internal/tracer"
)

// An interned hop is one 8-byte cell: exactly the observables tracer.Route.Equal
// compares, and nothing else. As the little-endian bytes a checkpoint writes
// (docs/checkpoint.md):
//
//	byte 0-3  responder IPv4 address, in network order (zero without one)
//	byte 4    TTL
//	byte 5    ProbeTTL, two's complement (-1: the reply quoted nothing)
//	byte 6    RespTTL
//	byte 7    bits 0-3 Kind, bit 4 has-address, bit 5 Mismatched, bits 6-7 zero
//
// RTTs and IP IDs are not kept: nothing memoized reads them. RTTs fold from
// the current pair (foldRTT), and the two rules that read IP IDs are
// re-evaluated against the current round's route on every fold.
//
// A cell is canonical when its reserved bits are zero, its kind is a
// tracer.ReplyKind, and it has an address exactly when it is not a star (a
// star's address bytes are then zero). packHop only writes canonical cells
// and a restore refuses any other, so every cell unpacks to the one Hop it
// was packed from, up to RTT and IP ID.
const (
	cellTTLShift      = 32
	cellProbeTTLShift = 40
	cellRespTTLShift  = 48
	cellKindShift     = 56
	cellKindMask      = 0xf << cellKindShift
	cellHasAddr       = 1 << 60
	cellMismatched    = 1 << 61
	cellReserved      = 3 << 62
)

// addrBits is an IPv4 address as the low 32 bits of a cell: its octets in
// network order, read little-endian.
func addrBits(a netip.Addr) uint32 {
	b := a.As4()
	return binary.LittleEndian.Uint32(b[:])
}

// bitsAddr inverts addrBits.
func bitsAddr(v uint32) netip.Addr {
	return netip.AddrFrom4(addr4(v))
}

// addr4 is the four bytes of the IPv4 address addrBits packed into v.
func addr4(v uint32) (b [4]byte) {
	binary.LittleEndian.PutUint32(b[:], v)
	return b
}

// packHop returns h's cell, or false when no canonical cell holds it: a field
// out of its byte's range, a star with an address, or a response from
// anything but an IPv4 address. The accumulator never interns such a route;
// it analyzes it unmemoized, as it does a fingerprint collision.
func packHop(h *tracer.Hop) (uint64, bool) {
	if uint(h.TTL) > 0xff || uint(h.RespTTL) > 0xff || h.ProbeTTL < -0x80 || h.ProbeTTL > 0x7f ||
		uint(h.Kind) > uint(tracer.KindTCPSynAck) {
		return 0, false
	}
	c := uint64(h.TTL)<<cellTTLShift | uint64(uint8(int8(h.ProbeTTL)))<<cellProbeTTLShift |
		uint64(h.RespTTL)<<cellRespTTLShift | uint64(h.Kind)<<cellKindShift
	if h.Mismatched {
		c |= cellMismatched
	}
	if h.Star() {
		return c, !h.Addr.IsValid()
	}
	if !h.Addr.Is4() {
		return 0, false
	}
	return c | cellHasAddr | uint64(addrBits(h.Addr)), true
}

// unpackHop returns the hop a canonical cell was packed from, RTT and IP ID
// zero.
func unpackHop(c uint64) tracer.Hop {
	h := tracer.Hop{
		TTL:        int(uint8(c >> cellTTLShift)),
		ProbeTTL:   int(int8(c >> cellProbeTTLShift)),
		RespTTL:    int(uint8(c >> cellRespTTLShift)),
		Kind:       tracer.ReplyKind(c & cellKindMask >> cellKindShift),
		Mismatched: c&cellMismatched != 0,
	}
	if c&cellHasAddr != 0 {
		h.Addr = bitsAddr(uint32(c))
	}
	return h
}

// checkCell refuses a cell packHop cannot have written.
func checkCell(c uint64) error {
	kind := tracer.ReplyKind(c & cellKindMask >> cellKindShift)
	switch {
	case c&cellReserved != 0:
		return fmt.Errorf("%w: hop cell %#016x sets reserved bits", ckpt.ErrCorrupt, c)
	case kind > tracer.KindTCPSynAck:
		return fmt.Errorf("%w: hop cell %#016x has reply kind %d", ckpt.ErrCorrupt, c, kind)
	case kind == tracer.KindNone && (c&cellHasAddr != 0 || uint32(c) != 0):
		return fmt.Errorf("%w: hop cell %#016x is a star with an address", ckpt.ErrCorrupt, c)
	case kind != tracer.KindNone && c&cellHasAddr == 0:
		return fmt.Errorf("%w: hop cell %#016x responds with no address, not an IPv4 address", ckpt.ErrCorrupt, c)
	}
	return nil
}
