package netsim

import (
	"net/netip"
	"sync/atomic"

	"repro/internal/packet"
)

// Host is a simulated end host (a traceroute destination). Hosts answer
// probes the way the paper's "pingable" destinations do: UDP probes to
// unbound ports draw ICMP Port Unreachable, Echo Requests draw Echo Replies,
// and TCP SYNs draw RST (closed port) or SYN-ACK (listening port).
//
// OpenTCPPorts and Silent are topology configuration: set them before the
// network starts exchanging probes.
type Host struct {
	Name string
	Addr netip.Addr

	// OpenTCPPorts lists ports that answer SYN with SYN-ACK; all other
	// TCP ports answer with RST. tcptraceroute treats both as arrival.
	OpenTCPPorts map[uint16]bool

	// Silent suppresses all responses (an unpingable host; the paper
	// excludes these from its destination list, but the campaign engine
	// uses them to test stop conditions).
	Silent bool

	// ipID accumulates in 32 bits and is truncated to the 16-bit IP ID,
	// which equals 16-bit modular increment per originated packet.
	ipID atomic.Uint32
}

// NewHost creates a host answering at addr.
func NewHost(name string, addr netip.Addr) *Host {
	return &Host{Name: name, Addr: addr}
}

// hostTTL is the initial TTL of packets a host originates: end hosts
// commonly use 64 where routers use 255.
const hostTTL = 64

func (h *Host) nextIPID() uint16 {
	return uint16(h.ipID.Add(1))
}

// respond builds the host's response to the delivered packet (already
// parsed into ih/payload by the forwarding engine), or returns nil if the
// host stays silent. Response buffers come from ctx's arena.
func (h *Host) respond(ctx *exchCtx, ih *packet.IPv4, payload, pkt []byte) []byte {
	if h.Silent {
		return nil
	}
	switch ih.Protocol {
	case packet.ProtoUDP:
		m := packet.ICMP{
			Type:    packet.ICMPTypeDestUnreachable,
			Code:    packet.CodePortUnreachable,
			Payload: quoteOf(pkt, ih, payload),
		}
		return h.marshalICMP(ctx, &m, ih.Src)
	case packet.ProtoICMP:
		var m packet.ICMP
		if err := packet.ParseICMPInto(payload, &m); err != nil || m.Type != packet.ICMPTypeEchoRequest {
			return nil
		}
		reply := packet.ICMP{
			Type:    packet.ICMPTypeEchoReply,
			ID:      m.ID,
			Seq:     m.Seq,
			Payload: m.Payload, // copied out by MarshalIPv4ICMPInto
		}
		return h.marshalICMP(ctx, &reply, ih.Src)
	case packet.ProtoTCP:
		var th packet.TCP
		if _, _, err := packet.ParseTCPInto(payload, &th); err != nil {
			return nil
		}
		flags := uint8(packet.TCPRst | packet.TCPAck)
		if h.OpenTCPPorts[th.DstPort] {
			flags = packet.TCPSyn | packet.TCPAck
		}
		seg, err := packet.MarshalTCP(h.Addr, ih.Src, &packet.TCP{
			SrcPort: th.DstPort,
			DstPort: th.SrcPort,
			Ack:     th.Seq + 1,
			Flags:   flags,
			Window:  65535,
		}, nil)
		if err != nil {
			return nil
		}
		ip := packet.IPv4{
			TTL:      hostTTL,
			Protocol: packet.ProtoTCP,
			ID:       h.nextIPID(),
			Src:      h.Addr,
			Dst:      ih.Src,
		}
		out, err := ip.MarshalInto(ctx.arena.take(ip.HeaderLen()+len(seg)), seg)
		if err != nil {
			return nil
		}
		return out
	default:
		return nil
	}
}

func (h *Host) marshalICMP(ctx *exchCtx, m *packet.ICMP, dst netip.Addr) []byte {
	ip := packet.IPv4{
		TTL:      hostTTL,
		Protocol: packet.ProtoICMP,
		ID:       h.nextIPID(),
		Src:      h.Addr,
		Dst:      dst,
	}
	out, err := packet.MarshalIPv4ICMPInto(ctx.arena.take(packet.IPv4ICMPLen(&ip, m)), &ip, m)
	if err != nil {
		return nil
	}
	return out
}
