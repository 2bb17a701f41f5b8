package netsim

import (
	"net/netip"

	"repro/internal/keyhash"
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

	// key keys the IP IDs the host stamps (ipID), derived from its name as
	// a router's is (Router.key).
	key uint64
}

// NewHost creates a host answering at addr.
func NewHost(name string, addr netip.Addr) *Host {
	return &Host{Name: name, Addr: addr, key: keyhash.FNV1a(keyhash.FNVOffset64, []byte(name))}
}

// hostTTL is the initial TTL of packets a host originates: end hosts
// commonly use 64 where routers use 255.
const hostTTL = 64

// origin is a box as the source of the packets it originates — every
// response in the network: the address they leave from, their initial TTL,
// the IP ID they carry, and whether the box is silent. A host and a router
// differ only in these values: a host originates with hostTTL and an IP ID
// stride of one, a router with what its config says (routerOrigin).
type origin struct {
	src    netip.Addr
	ttl    uint8
	id     uint16
	silent bool
}

// ipID is the IP ID the box keyed box stamps on its answer to the packet
// hdr, payload: a base drawn from (seed, virtual round, box) plus stride
// times the packet's position, which advances by one per probe of a trace
// — "usually incremented for each packet sent" (Section 2.2), whatever the
// order probes arrive in.
func ipID(ctx *exchCtx, box uint64, stride uint16, hdr *packet.IPv4, payload []byte) uint16 {
	return uint16(keyhash.Mix64(ctx.key^box)) + stride*uint16(position(ctx.seed, hdr, payload))
}

// stamp sets ip to the IPv4 header of a packet o originates toward dst:
// o's source address, initial TTL and IP ID. It reports false, and leaves
// ip alone, when o is silent: a silent box originates nothing.
func (o *origin) stamp(ip *packet.IPv4, proto uint8, dst netip.Addr) bool {
	if o.silent {
		return false
	}
	*ip = packet.IPv4{TTL: o.ttl, Protocol: proto, ID: o.id, Src: o.src, Dst: dst}
	return true
}

// icmp serializes the ICMP message m from o to dst into ctx's arena, or
// returns nil when o is silent.
func (o *origin) icmp(ctx *exchCtx, dst netip.Addr, m *packet.ICMP) []byte {
	var ip packet.IPv4
	if !o.stamp(&ip, packet.ProtoICMP, dst) {
		return nil
	}
	out, err := packet.MarshalIPv4ICMPInto(ctx.arena.take(packet.IPv4ICMPLen(&ip, m)), &ip, m)
	if err != nil {
		return nil
	}
	return out
}

// answer builds o's response to a packet addressed to it, already parsed
// into hdr and payload by the walk: a UDP probe draws Port Unreachable, an
// Echo Request an Echo Reply, and a TCP SYN a RST+ACK, or a SYN+ACK on a
// port in open (a router passes nil). Anything else, or a silent o, draws
// nothing (nil).
func (o *origin) answer(ctx *exchCtx, open map[uint16]bool, hdr *packet.IPv4, payload, pkt []byte) []byte {
	switch hdr.Protocol {
	case packet.ProtoUDP:
		m := packet.ICMP{
			Type:    packet.ICMPTypeDestUnreachable,
			Code:    packet.CodePortUnreachable,
			Payload: quoteOf(pkt, hdr, payload),
		}
		return o.icmp(ctx, hdr.Src, &m)
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
		return o.icmp(ctx, hdr.Src, &reply)
	case packet.ProtoTCP:
		var th packet.TCP
		if _, _, err := packet.ParseTCPInto(payload, &th); err != nil {
			return nil
		}
		var ip packet.IPv4
		if !o.stamp(&ip, packet.ProtoTCP, hdr.Src) {
			return nil
		}
		flags := uint8(packet.TCPRst | packet.TCPAck)
		if open[th.DstPort] {
			flags = packet.TCPSyn | packet.TCPAck
		}
		seg, err := packet.MarshalTCP(o.src, hdr.Src, &packet.TCP{
			SrcPort: th.DstPort,
			DstPort: th.SrcPort,
			Ack:     th.Seq + 1,
			Flags:   flags,
			Window:  65535,
		}, nil)
		if err != nil {
			return nil
		}
		out, err := ip.MarshalInto(ctx.arena.take(ip.HeaderLen()+len(seg)), seg)
		if err != nil {
			return nil
		}
		return out
	}
	return nil
}
