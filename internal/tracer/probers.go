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
	// tcptracerouteDstPort is tcptraceroute's default Destination Port,
	// emulating web traffic to traverse firewalls.
	tcptracerouteDstPort = 80
	// payloadLen is every UDP and ICMP probe's payload length, classic
	// traceroute's default; Paris UDP needs two of its octets to absorb the
	// checksum.
	payloadLen = 12
)

// methods are the probing disciplines by name, each the Name of the Tracer
// its constructor builds.
var methods = map[string]func(Transport, Options) Tracer{
	"paris-udp":     NewParisUDP,
	"paris-icmp":    NewParisICMP,
	"paris-tcp":     NewParisTCP,
	"classic-udp":   NewClassicUDP,
	"classic-icmp":  NewClassicICMP,
	"tcptraceroute": NewTCPTraceroute,
}

// New builds the Tracer of the named probing method ("paris-udp",
// "tcptraceroute", ...), the discipline whose Name that is.
func New(method string, tp Transport, opts Options) (Tracer, error) {
	mk, ok := methods[method]
	if !ok {
		return nil, fmt.Errorf("tracer: unknown method %q", method)
	}
	return mk(tp, opts), nil
}

// wrap puts the IPv4 header around a probe's transport bytes, which is all a
// builder has left to do once it has laid those out. Every discipline numbers
// the IP ID with the probe; only tcptraceroute relies on it, having nothing
// else in the quoted octets that varies.
func (e *engine) wrap(buf []byte, dest netip.Addr, ttl, probeIdx int, proto uint8, transport []byte) ([]byte, error) {
	return (&packet.IPv4{
		TTL:      uint8(ttl),
		Protocol: proto,
		ID:       uint16(probeIdx + 1),
		Src:      e.src,
		Dst:      dest,
	}).MarshalInto(buf, transport)
}

// NewClassicUDP builds Jacobson-style classic traceroute with UDP probes:
// the Destination Port — inside the first four transport octets, hence part
// of the flow identifier — is incremented with every probe, so consecutive
// probes may take different paths through per-flow load balancers.
func NewClassicUDP(tp Transport, opts Options) Tracer {
	// The default source port emulates PID + 32768.
	e := newEngine("classic-udp", tp, opts, ClassicSrcPortBase+1234, ClassicBaseDstPort, buildClassicUDP)
	e.payload = make([]byte, payloadLen)
	return e
}

func buildClassicUDP(e *engine, dest netip.Addr, ttl, probeIdx int, buf []byte) ([]byte, error) {
	uh := &packet.UDP{SrcPort: e.opts.SrcPort, DstPort: e.opts.DstPort + uint16(probeIdx)}
	dgram, err := packet.MarshalUDPInto(e.dgram, e.src, dest, uh, e.payload)
	if err != nil {
		return nil, err
	}
	e.dgram = dgram
	return e.wrap(buf, dest, ttl, probeIdx, packet.ProtoUDP, dgram)
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

func buildParisUDP(e *engine, dest netip.Addr, ttl, probeIdx int, buf []byte) ([]byte, error) {
	// Probe identifier: checksum = probeIdx+1 (never zero).
	target := uint16(probeIdx + 1)
	if target == 0 {
		target = 1
	}
	uh := &packet.UDP{SrcPort: e.opts.SrcPort, DstPort: e.opts.DstPort}
	payload, err := packet.CraftUDPPayloadInto(e.payload, e.src, dest, uh, target, payloadLen)
	if err != nil {
		return nil, err
	}
	e.payload = payload
	dgram, err := packet.MarshalUDPInto(e.dgram, e.src, dest, uh, payload)
	if err != nil {
		return nil, err
	}
	e.dgram = dgram
	if got := uint16(dgram[6])<<8 | uint16(dgram[7]); got != target {
		return nil, fmt.Errorf("tracer: crafted checksum %#04x, want %#04x", got, target)
	}
	return e.wrap(buf, dest, ttl, probeIdx, packet.ProtoUDP, dgram)
}

// NewClassicICMP builds classic traceroute with ICMP Echo probes: the
// Sequence Number varies per probe, which varies the Checksum — and the
// Checksum sits in the first four transport octets, i.e. in the flow
// identifier.
func NewClassicICMP(tp Transport, opts Options) Tracer {
	id := opts.ICMPID
	if id == 0 {
		id = 4321 // emulate the process ID
	}
	return newEngine("classic-icmp", tp, opts, 0, 0,
		func(e *engine, dest netip.Addr, ttl, probeIdx int, buf []byte) ([]byte, error) {
			return e.echo(buf, dest, ttl, probeIdx, id, make([]byte, payloadLen))
		})
}

// NewParisICMP builds Paris traceroute with ICMP Echo probes: the Sequence
// Number still varies (for probe matching), but the Identifier is chosen to
// compensate so the Checksum — the flow-identifying octets — stays constant
// at Options.ICMPID (or a default).
func NewParisICMP(tp Transport, opts Options) Tracer {
	target := opts.ICMPID
	if target == 0 || target == 0xffff {
		// Zero means "use the default"; all-ones is unreachable (it
		// would need a one's-complement sum of +0, impossible for
		// nonzero data), so it falls back to the default too.
		target = 0xbeef // constant checksum: the flow identifier
	}
	return newEngine("paris-icmp", tp, opts, 0, 0,
		func(e *engine, dest netip.Addr, ttl, probeIdx int, buf []byte) ([]byte, error) {
			payload := make([]byte, payloadLen)
			id, err := packet.CompensatingEchoID(uint16(probeIdx+1), target, payload)
			if err != nil {
				return nil, err
			}
			return e.echo(buf, dest, ttl, probeIdx, id, payload)
		})
}

// echo builds an Echo Request probe: the Sequence Number is the probe's, the
// Identifier the discipline's choice.
func (e *engine) echo(buf []byte, dest netip.Addr, ttl, probeIdx int, id uint16, payload []byte) ([]byte, error) {
	m := &packet.ICMP{Type: packet.ICMPTypeEchoRequest, ID: id, Seq: uint16(probeIdx + 1), Payload: payload}
	body, err := m.Marshal()
	if err != nil {
		return nil, err
	}
	return e.wrap(buf, dest, ttl, probeIdx, packet.ProtoICMP, body)
}

// NewParisTCP builds Paris traceroute with TCP probes: ports are constant
// (the flow identifier lives in the first four octets — the ports), and the
// Sequence Number, which sits in the second four octets, varies per probe.
func NewParisTCP(tp Transport, opts Options) Tracer {
	return newEngine("paris-tcp", tp, opts, 30021, tcptracerouteDstPort,
		func(e *engine, dest netip.Addr, ttl, probeIdx int, buf []byte) ([]byte, error) {
			return e.syn(buf, dest, ttl, probeIdx, uint32(probeIdx+1))
		})
}

// NewTCPTraceroute builds Toren's tcptraceroute: Destination Port 80,
// constant TCP fields, varying the IP Identification field for matching.
// Like Paris TCP it maintains a constant flow identifier; the paper notes
// this but observes no prior work had examined the effect.
func NewTCPTraceroute(tp Transport, opts Options) Tracer {
	return newEngine("tcptraceroute", tp, opts, 31337, tcptracerouteDstPort,
		func(e *engine, dest netip.Addr, ttl, probeIdx int, buf []byte) ([]byte, error) {
			return e.syn(buf, dest, ttl, probeIdx, 0x1000)
		})
}

// syn builds a TCP SYN probe on the engine's ports with the given Sequence
// Number.
func (e *engine) syn(buf []byte, dest netip.Addr, ttl, probeIdx int, seq uint32) ([]byte, error) {
	seg, err := packet.MarshalTCP(e.src, dest, &packet.TCP{
		SrcPort: e.opts.SrcPort,
		DstPort: e.opts.DstPort,
		Seq:     seq,
		Flags:   packet.TCPSyn,
		Window:  65535,
	}, nil)
	if err != nil {
		return nil, err
	}
	return e.wrap(buf, dest, ttl, probeIdx, packet.ProtoTCP, seg)
}
