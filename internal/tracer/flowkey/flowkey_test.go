package flowkey_test

import (
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/tracer"
	"repro/internal/tracer/flowkey"
)

// The attribution rule over real probes: each discipline's own builder
// traces Fig. 1 through netsim, and the table below asks of every kind of
// answer a probe can draw whether it is attributed to that probe, to that
// probe only, and by exactly the octets the package comment names. (An
// external test package: tracer imports flowkey.)

var disciplines = []struct {
	name string
	mk   func(tracer.Transport, tracer.Options) tracer.Tracer
}{
	{"paris-udp", tracer.NewParisUDP},
	{"paris-icmp", tracer.NewParisICMP},
	{"paris-tcp", tracer.NewParisTCP},
	{"classic-udp", tracer.NewClassicUDP},
	{"classic-icmp", tracer.NewClassicICMP},
	{"tcptraceroute", tracer.NewTCPTraceroute},
}

// recorder keeps every probe a trace sends and netsim's answer to it.
type recorder struct {
	*netsim.Transport
	probes, answers [][]byte
}

func (r *recorder) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	r.Transport.ExchangeBatch(probes, out)
	for i, p := range probes {
		r.probes = append(r.probes, append([]byte(nil), p...))
		r.answers = append(r.answers, append([]byte(nil), out[i].Resp...))
	}
}

// ladder traces Fig. 1's destination (nine routers, then the host) with one
// discipline and returns what went each way.
func ladder(t testing.TB, mk func(tracer.Transport, tracer.Options) tracer.Tracer) (probes, answers [][]byte) {
	t.Helper()
	fig := topo.BuildFigure1(1, netsim.PerFlow)
	rec := &recorder{Transport: netsim.NewTransport(fig.Net)}
	rt, err := mk(rec, tracer.Options{}).Trace(fig.Dest.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Reached() || len(rec.probes) < 4 {
		t.Fatalf("trace halted %v after %d probes; the table needs a full ladder", rt.Halt, len(rec.probes))
	}
	return rec.probes, rec.answers
}

// answers reports whether flowkey attributes resp to probe, and holds the
// rule's two forms to each other on the way: the keys the transports use, and
// Quotes, the in-place form the tracer uses for ICMP errors.
func answers(t testing.TB, probe, resp []byte) bool {
	t.Helper()
	quoted, terminal, hasTerminal, ok := flowkey.ProbeKeys(probe)
	key, keyed := flowkey.RespKey(resp)
	byKey := ok && keyed && (key == quoted || hasTerminal && key == terminal)

	var outer, inner packet.IPv4
	var m packet.ICMP
	payload, err := packet.ParseIPv4Into(resp, &outer)
	if err != nil || outer.Protocol != packet.ProtoICMP || packet.ParseICMPInto(payload, &m) != nil || !m.IsError() {
		return byKey
	}
	transport, err := packet.ParseIPv4Into(m.Payload, &inner)
	if inPlace := err == nil && flowkey.Quotes(probe, &inner, transport); inPlace != byKey {
		t.Errorf("the two forms disagree: Quotes says %v, key equality says %v", inPlace, byKey)
	}
	return byKey
}

// An answer kind, built from the probe's real bytes the way the box that
// sends it would.
type kind struct {
	name   string
	quotes bool                                    // an ICMP error: it quotes the probe
	build  func(t testing.TB, probe []byte) []byte // nil: this probe cannot draw it
}

func icmpError(typ, code uint8) func(testing.TB, []byte) []byte {
	return func(t testing.TB, probe []byte) []byte {
		q := append([]byte(nil), probe...)
		if err := packet.PatchTTL(q, 1); err != nil { // as it arrived at the box that dropped it
			t.Fatal(err)
		}
		quote, err := packet.QuotePacket(q)
		if err != nil {
			t.Fatal(err)
		}
		h, _, _ := packet.ParseIPv4(probe)
		return wrap(t, h.Src, packet.ProtoICMP, mustICMP(t, &packet.ICMP{Type: typ, Code: code, Payload: quote}))
	}
}

func mustICMP(t testing.TB, m *packet.ICMP) []byte {
	t.Helper()
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wrap sends body to the prober from a box whose address is not the probe's
// destination: the outer source is no part of the rule (Fig. 5's NAT).
func wrap(t testing.TB, to netip.Addr, proto uint8, body []byte) []byte {
	t.Helper()
	resp, err := (&packet.IPv4{TTL: 250, ID: 777, Protocol: proto,
		Src: netip.AddrFrom4([4]byte{192, 0, 2, 9}), Dst: to}).MarshalInto(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func echoReply(t testing.TB, probe []byte) []byte {
	h, payload, _ := packet.ParseIPv4(probe)
	var m packet.ICMP
	if h.Protocol != packet.ProtoICMP || packet.ParseICMPInto(payload, &m) != nil {
		return nil
	}
	return wrap(t, h.Src, packet.ProtoICMP, mustICMP(t, &packet.ICMP{Type: packet.ICMPTypeEchoReply, ID: m.ID, Seq: m.Seq, Payload: m.Payload}))
}

func tcpReply(flags uint8) func(testing.TB, []byte) []byte {
	return func(t testing.TB, probe []byte) []byte {
		h, payload, _ := packet.ParseIPv4(probe)
		var th packet.TCP
		if h.Protocol != packet.ProtoTCP {
			return nil
		}
		if _, _, err := packet.ParseTCPInto(payload, &th); err != nil {
			t.Fatal(err)
		}
		seg, err := packet.MarshalTCP(h.Dst, h.Src, &packet.TCP{SrcPort: th.DstPort, DstPort: th.SrcPort,
			Ack: th.Seq + 1, Flags: flags, Window: 65535}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return wrap(t, h.Src, packet.ProtoTCP, seg)
	}
}

var kinds = []kind{
	{"time-exceeded", true, icmpError(packet.ICMPTypeTimeExceeded, packet.CodeTTLExceeded)},
	{"port-unreachable", true, icmpError(packet.ICMPTypeDestUnreachable, packet.CodePortUnreachable)},
	{"host-unreachable", true, icmpError(packet.ICMPTypeDestUnreachable, packet.CodeHostUnreachable)},
	{"net-unreachable", true, icmpError(packet.ICMPTypeDestUnreachable, packet.CodeNetUnreachable)},
	{"echo-reply", false, echoReply},
	{"rst", false, tcpReply(packet.TCPRst | packet.TCPAck)},
	{"syn-ack", false, tcpReply(packet.TCPSyn | packet.TCPAck)},
}

// Offsets into an ICMP error as wrap and icmpError lay it out: outer header,
// ICMP header, then the quote — the probe's header and eight transport octets.
const (
	quoteOff     = packet.IPv4HeaderLen + packet.ICMPHeaderLen
	transportOff = quoteOff + packet.IPv4HeaderLen
)

func TestAttributionTable(t *testing.T) {
	for _, d := range disciplines {
		t.Run(d.name, func(t *testing.T) {
			probes, genuine := ladder(t, d.mk)
			// tcptraceroute's SYNs differ only in the IP ID, which no TCP
			// reply echoes: its terminal key is shared by the whole ladder
			// (the FIFO rule of the package comment), every other key in
			// the table is one probe's alone.
			sharedTerminal := d.name == "tcptraceroute"

			for i, resp := range genuine {
				if !answers(t, probes[i], resp) {
					t.Errorf("netsim's answer to probe %d is not attributed to it", i)
				}
				if i > 0 && answers(t, probes[i-1], resp) && !(sharedTerminal && i == len(genuine)-1) {
					t.Errorf("netsim's answer to probe %d is also attributed to probe %d", i, i-1)
				}
			}

			probe, neighbour := probes[2], probes[3]
			for _, k := range kinds {
				resp := k.build(t, probe)
				if resp == nil {
					continue
				}
				t.Run(k.name, func(t *testing.T) {
					if !answers(t, probe, resp) {
						t.Fatal("the genuine answer is not attributed to its probe")
					}
					if got, want := answers(t, neighbour, resp), sharedTerminal && !k.quotes; got != want {
						t.Errorf("attributed to the neighbouring probe: %v, want %v", got, want)
					}
					if !k.quotes {
						return
					}
					altered := func(what string, off int, want bool) {
						t.Helper()
						forged := append([]byte(nil), resp...)
						forged[off] ^= 0x01
						if got := answers(t, probe, forged); got != want {
							t.Errorf("quote with its %s altered: attributed %v, want %v", what, got, want)
						}
					}
					// Every field of the key decides...
					altered("IP ID (high octet)", quoteOff+4, false)
					altered("IP ID (low octet)", quoteOff+5, false)
					altered("protocol", quoteOff+9, false)
					for b := 0; b < 4; b++ {
						altered(fmt.Sprintf("source octet %d", b), quoteOff+12+b, false)
						altered(fmt.Sprintf("destination octet %d", b), quoteOff+16+b, false)
					}
					for b := 0; b < 8; b++ {
						altered(fmt.Sprintf("transport octet %d", b), transportOff+b, false)
					}
					// ...and what routers rewrite in flight does not: the
					// quoted TTL (Fig. 4 shows it arriving as 0 or 1) and the
					// header checksum that follows it.
					altered("TTL", quoteOff+8, true)
					altered("header checksum (high octet)", quoteOff+10, true)
					altered("header checksum (low octet)", quoteOff+11, true)
					// Half the identifying octets are not enough.
					if answers(t, probe, resp[:transportOff+4]) {
						t.Error("a quote cut to four transport octets is attributed")
					}
				})
			}
		})
	}
}
