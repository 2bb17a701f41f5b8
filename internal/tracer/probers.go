package tracer

import (
	"fmt"
	"net/netip"

	"repro/internal/packet"
)

// Historical defaults from the tools the paper studies.
const (
	// ClassicBaseDstPort is classic traceroute's initial UDP Destination
	// Port (33435), incremented with each probe sent.
	ClassicBaseDstPort = 33435
	// ClassicSrcPortBase: classic traceroute sets the Source Port to the
	// process ID plus 32768.
	ClassicSrcPortBase = 32768
	// TCPTracerouteDstPort is tcptraceroute's default Destination Port,
	// emulating web traffic to traverse firewalls.
	TCPTracerouteDstPort = 80
)

// NewClassicUDP builds Jacobson-style classic traceroute with UDP probes:
// the Destination Port — inside the first four transport octets, hence part
// of the flow identifier — is incremented with every probe, so consecutive
// probes may take different paths through per-flow load balancers.
func NewClassicUDP(tp Transport, opts Options) Tracer {
	// The default source port emulates PID + 32768.
	e := newEngine("classic-udp", tp, opts, ClassicSrcPortBase+1234, ClassicBaseDstPort, buildClassicUDP)
	e.payload = make([]byte, e.opts.PayloadLen)
	return e
}

func buildClassicUDP(e *engine, dest netip.Addr, ttl, probeIdx int, buf []byte) ([]byte, expect, error) {
	srcPort, dstPort := e.opts.SrcPort, e.opts.DstPort+uint16(probeIdx)
	uh := &packet.UDP{SrcPort: srcPort, DstPort: dstPort}
	dgram, err := packet.MarshalUDPInto(e.dgram, e.src, dest, uh, e.payload)
	if err != nil {
		return nil, expect{}, err
	}
	e.dgram = dgram
	pkt, err := (&packet.IPv4{
		TOS:      e.opts.TOS,
		TTL:      uint8(ttl),
		Protocol: packet.ProtoUDP,
		ID:       uint16(probeIdx + 1),
		Src:      e.src,
		Dst:      dest,
	}).MarshalInto(buf, dgram)
	if err != nil {
		return nil, expect{}, err
	}
	return pkt, expect{
		dest:         dest,
		proto:        packet.ProtoUDP,
		udpSrcPort:   srcPort,
		udpDstPort:   dstPort,
		matchUDPPort: true,
	}, nil
}

// NewParisUDP builds Paris traceroute with UDP probes: Source and
// Destination Ports stay constant (they are the flow identifier), and the
// probe identifier is the UDP Checksum, steered to the desired value by
// crafting the payload (Section 2.2).
//
// The (SrcPort, DstPort) pair selects the flow; varying it across traces
// enumerates different load-balanced paths.
func NewParisUDP(tp Transport, opts Options) Tracer {
	return newEngine("paris-udp", tp, opts, 10007, 20011, buildParisUDP)
}

func buildParisUDP(e *engine, dest netip.Addr, ttl, probeIdx int, buf []byte) ([]byte, expect, error) {
	// Probe identifier: checksum = probeIdx+1 (never zero).
	target := uint16(probeIdx + 1)
	if target == 0 {
		target = 1
	}
	srcPort, dstPort := e.opts.SrcPort, e.opts.DstPort
	uh := &packet.UDP{SrcPort: srcPort, DstPort: dstPort}
	payload, err := packet.CraftUDPPayloadInto(e.payload, e.src, dest, uh, target, e.opts.PayloadLen)
	if err != nil {
		return nil, expect{}, err
	}
	e.payload = payload
	dgram, err := packet.MarshalUDPInto(e.dgram, e.src, dest, uh, payload)
	if err != nil {
		return nil, expect{}, err
	}
	e.dgram = dgram
	if got := uint16(dgram[6])<<8 | uint16(dgram[7]); got != target {
		return nil, expect{}, fmt.Errorf("tracer: crafted checksum %#04x, want %#04x", got, target)
	}
	pkt, err := (&packet.IPv4{
		TOS:      e.opts.TOS,
		TTL:      uint8(ttl),
		Protocol: packet.ProtoUDP,
		ID:       uint16(probeIdx + 1),
		Src:      e.src,
		Dst:      dest,
	}).MarshalInto(buf, dgram)
	if err != nil {
		return nil, expect{}, err
	}
	return pkt, expect{
		dest:             dest,
		proto:            packet.ProtoUDP,
		udpSrcPort:       srcPort,
		udpDstPort:       dstPort,
		udpChecksum:      target,
		matchUDPChecksum: true,
	}, nil
}

// NewClassicICMP builds classic traceroute with ICMP Echo probes: the
// Sequence Number varies per probe, which varies the Checksum — and the
// Checksum sits in the first four transport octets, i.e. in the flow
// identifier.
func NewClassicICMP(tp Transport, opts Options) Tracer {
	opts = opts.withDefaults()
	id := opts.ICMPID
	if id == 0 {
		id = 4321 // emulate the process ID
	}
	src := tp.Source()
	return newEngine("classic-icmp", tp, opts, 0, 0,
		func(_ *engine, dest netip.Addr, ttl, probeIdx int, buf []byte) ([]byte, expect, error) {
			seq := uint16(probeIdx + 1)
			m := &packet.ICMP{
				Type:    packet.ICMPTypeEchoRequest,
				ID:      id,
				Seq:     seq,
				Payload: make([]byte, opts.PayloadLen),
			}
			body, err := m.Marshal()
			if err != nil {
				return nil, expect{}, err
			}
			pkt, err := (&packet.IPv4{
				TOS:      opts.TOS,
				TTL:      uint8(ttl),
				Protocol: packet.ProtoICMP,
				ID:       uint16(probeIdx + 1),
				Src:      src,
				Dst:      dest,
			}).MarshalInto(buf, body)
			if err != nil {
				return nil, expect{}, err
			}
			return pkt, expect{
				dest:         dest,
				proto:        packet.ProtoICMP,
				icmpID:       id,
				icmpSeq:      seq,
				matchICMPSeq: true,
			}, nil
		})
}

// NewParisICMP builds Paris traceroute with ICMP Echo probes: the Sequence
// Number still varies (for probe matching), but the Identifier is chosen to
// compensate so the Checksum — the flow-identifying octets — stays constant
// at Options.ICMPID (or a default).
func NewParisICMP(tp Transport, opts Options) Tracer {
	opts = opts.withDefaults()
	target := opts.ICMPID
	if target == 0 || target == 0xffff {
		// Zero means "use the default"; all-ones is unreachable (it
		// would need a one's-complement sum of +0, impossible for
		// nonzero data), so it falls back to the default too.
		target = 0xbeef // constant checksum: the flow identifier
	}
	src := tp.Source()
	return newEngine("paris-icmp", tp, opts, 0, 0,
		func(_ *engine, dest netip.Addr, ttl, probeIdx int, buf []byte) ([]byte, expect, error) {
			seq := uint16(probeIdx + 1)
			payload := make([]byte, opts.PayloadLen)
			id, err := packet.CompensatingEchoID(seq, target, payload)
			if err != nil {
				return nil, expect{}, err
			}
			m := &packet.ICMP{
				Type:    packet.ICMPTypeEchoRequest,
				ID:      id,
				Seq:     seq,
				Payload: payload,
			}
			body, err := m.Marshal()
			if err != nil {
				return nil, expect{}, err
			}
			pkt, err := (&packet.IPv4{
				TOS:      opts.TOS,
				TTL:      uint8(ttl),
				Protocol: packet.ProtoICMP,
				ID:       uint16(probeIdx + 1),
				Src:      src,
				Dst:      dest,
			}).MarshalInto(buf, body)
			if err != nil {
				return nil, expect{}, err
			}
			return pkt, expect{
				dest:         dest,
				proto:        packet.ProtoICMP,
				icmpID:       id,
				icmpSeq:      seq,
				matchICMPSeq: true,
			}, nil
		})
}

// NewParisTCP builds Paris traceroute with TCP probes: ports are constant
// (the flow identifier lives in the first four octets — the ports), and the
// Sequence Number, which sits in the second four octets, varies per probe.
func NewParisTCP(tp Transport, opts Options) Tracer {
	opts = opts.withDefaults()
	src := tp.Source()
	return newEngine("paris-tcp", tp, opts, 30021, TCPTracerouteDstPort,
		func(e *engine, dest netip.Addr, ttl, probeIdx int, buf []byte) ([]byte, expect, error) {
			srcPort, dstPort := e.opts.SrcPort, e.opts.DstPort
			seq := uint32(probeIdx + 1)
			seg, err := packet.MarshalTCP(src, dest, &packet.TCP{
				SrcPort: srcPort,
				DstPort: dstPort,
				Seq:     seq,
				Flags:   packet.TCPSyn,
				Window:  65535,
			}, nil)
			if err != nil {
				return nil, expect{}, err
			}
			pkt, err := (&packet.IPv4{
				TOS:      opts.TOS,
				TTL:      uint8(ttl),
				Protocol: packet.ProtoTCP,
				ID:       uint16(probeIdx + 1),
				Src:      src,
				Dst:      dest,
			}).MarshalInto(buf, seg)
			if err != nil {
				return nil, expect{}, err
			}
			return pkt, expect{
				dest:        dest,
				proto:       packet.ProtoTCP,
				tcpSrcPort:  srcPort,
				tcpDstPort:  dstPort,
				tcpSeq:      seq,
				matchTCPSeq: true,
			}, nil
		})
}

// NewTCPTraceroute builds Toren's tcptraceroute: Destination Port 80,
// constant TCP fields, varying the IP Identification field for matching.
// Like Paris TCP it maintains a constant flow identifier; the paper notes
// this but observes no prior work had examined the effect.
func NewTCPTraceroute(tp Transport, opts Options) Tracer {
	opts = opts.withDefaults()
	src := tp.Source()
	return newEngine("tcptraceroute", tp, opts, 31337, TCPTracerouteDstPort,
		func(e *engine, dest netip.Addr, ttl, probeIdx int, buf []byte) ([]byte, expect, error) {
			srcPort, dstPort := e.opts.SrcPort, e.opts.DstPort
			ipid := uint16(probeIdx + 1)
			seg, err := packet.MarshalTCP(src, dest, &packet.TCP{
				SrcPort: srcPort,
				DstPort: dstPort,
				Seq:     0x1000,
				Flags:   packet.TCPSyn,
				Window:  65535,
			}, nil)
			if err != nil {
				return nil, expect{}, err
			}
			pkt, err := (&packet.IPv4{
				TOS:      opts.TOS,
				TTL:      uint8(ttl),
				Protocol: packet.ProtoTCP,
				ID:       ipid,
				Src:      src,
				Dst:      dest,
			}).MarshalInto(buf, seg)
			if err != nil {
				return nil, expect{}, err
			}
			return pkt, expect{
				dest:       dest,
				proto:      packet.ProtoTCP,
				tcpSrcPort: srcPort,
				tcpDstPort: dstPort,
				tcpSeq:     0x1000,
				matchIPID:  true,
				ipID:       ipid,
			}, nil
		})
}
