package tracer

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
)

// This file regenerates the paper's Fig. 2 — which header fields each
// probing discipline varies, and which of them feed per-flow load balancers
// — from the probe bytes the engines really emit. It is a paper artefact
// with no production caller, so the generator lives here beside the tests
// and the benchmark that are its only users.

// FieldRole describes how one probing discipline treats one header field —
// the content of the paper's Fig. 2. Roles are computed empirically: the
// engine builds a sequence of real probes and observes which fields change,
// rather than asserting a table by hand.
type FieldRole struct {
	Field string
	// Varies is true when the tool changes the field between probes of
	// one traceroute.
	Varies bool
	// LoadBalanced is true when the field feeds per-flow load balancers:
	// IP addresses, protocol, and the first four transport octets
	// (Section 2.1's empirical finding).
	LoadBalanced bool
}

// fieldProbe extracts the named fields from a serialized probe.
func probeFields(pkt []byte) (map[string]uint64, error) {
	h, payload, err := packet.ParseIPv4(pkt)
	if err != nil {
		return nil, err
	}
	f := map[string]uint64{
		"ip.tos":      uint64(h.TOS),
		"ip.id":       uint64(h.ID),
		"ip.protocol": uint64(h.Protocol),
	}
	switch h.Protocol {
	case packet.ProtoUDP:
		u := new(packet.UDP)
		if _, err := packet.ParseUDPInto(payload, u); err != nil {
			return nil, err
		}
		f["udp.sport"] = uint64(u.SrcPort)
		f["udp.dport"] = uint64(u.DstPort)
		f["udp.checksum"] = uint64(u.Checksum)
	case packet.ProtoICMP:
		m := new(packet.ICMP)
		if err := packet.ParseICMPInto(payload, m); err != nil {
			return nil, err
		}
		f["icmp.type"] = uint64(m.Type)
		f["icmp.code"] = uint64(m.Code)
		f["icmp.checksum"] = uint64(m.Checksum)
		f["icmp.id"] = uint64(m.ID)
		f["icmp.seq"] = uint64(m.Seq)
	case packet.ProtoTCP:
		th := new(packet.TCP)
		if _, _, err := packet.ParseTCPInto(payload, th); err != nil {
			return nil, err
		}
		f["tcp.sport"] = uint64(th.SrcPort)
		f["tcp.dport"] = uint64(th.DstPort)
		f["tcp.seq"] = uint64(th.Seq)
	}
	return f, nil
}

// loadBalancedFields lists the fields inside the flow identifier: the
// five-tuple-ish IP fields plus whatever sits in the first four transport
// octets (ports for UDP/TCP; type, code and checksum for ICMP).
var loadBalancedFields = map[string]bool{
	"ip.tos":        true, // some routers include TOS (Section 2.1)
	"ip.protocol":   true,
	"udp.sport":     true,
	"udp.dport":     true,
	"tcp.sport":     true,
	"tcp.dport":     true,
	"icmp.type":     true,
	"icmp.code":     true,
	"icmp.checksum": true,
}

// HeaderRoles builds n probes with the given engine constructor and reports
// each observed field's role. It is the machine-checked regeneration of the
// paper's Fig. 2.
func HeaderRoles(mk func(Transport) Tracer, n int) ([]FieldRole, error) {
	rec := &recordingTransport{src: netip.AddrFrom4([4]byte{10, 0, 0, 1})}
	tr := mk(rec)
	dest := netip.AddrFrom4([4]byte{192, 0, 2, 1})
	if _, err := tr.Trace(dest); err != nil {
		return nil, fmt.Errorf("tracer: header roles: %w", err)
	}
	if len(rec.probes) < n {
		n = len(rec.probes)
	}
	if n < 2 {
		return nil, fmt.Errorf("tracer: need at least two probes, got %d", n)
	}
	first, err := probeFields(rec.probes[0])
	if err != nil {
		return nil, err
	}
	varies := map[string]bool{}
	for i := 1; i < n; i++ {
		f, err := probeFields(rec.probes[i])
		if err != nil {
			return nil, err
		}
		for k, v := range f {
			if v != first[k] {
				varies[k] = true
			}
		}
	}
	var names []string
	for k := range first {
		names = append(names, k)
	}
	sort.Strings(names)
	roles := make([]FieldRole, 0, len(names))
	for _, k := range names {
		roles = append(roles, FieldRole{
			Field:        k,
			Varies:       varies[k],
			LoadBalanced: loadBalancedFields[k],
		})
	}
	return roles, nil
}

// ViolatesFlowConstancy reports whether any load-balanced field varies —
// the design flaw of classic traceroute that Paris traceroute fixes.
func ViolatesFlowConstancy(roles []FieldRole) bool {
	for _, r := range roles {
		if r.Varies && r.LoadBalanced {
			return true
		}
	}
	return false
}

// WriteHeaderRolesTable renders the Fig. 2 comparison for all six probing
// disciplines.
func WriteHeaderRolesTable(w io.Writer) error {
	engines := []struct {
		name string
		mk   func(Transport) Tracer
	}{
		{"classic-udp", func(tp Transport) Tracer { return NewClassicUDP(tp, Options{MaxTTL: 8, MaxConsecutiveStars: 100}) }},
		{"paris-udp", func(tp Transport) Tracer { return NewParisUDP(tp, Options{MaxTTL: 8, MaxConsecutiveStars: 100}) }},
		{"classic-icmp", func(tp Transport) Tracer { return NewClassicICMP(tp, Options{MaxTTL: 8, MaxConsecutiveStars: 100}) }},
		{"paris-icmp", func(tp Transport) Tracer { return NewParisICMP(tp, Options{MaxTTL: 8, MaxConsecutiveStars: 100}) }},
		{"tcptraceroute", func(tp Transport) Tracer { return NewTCPTraceroute(tp, Options{MaxTTL: 8, MaxConsecutiveStars: 100}) }},
		{"paris-tcp", func(tp Transport) Tracer { return NewParisTCP(tp, Options{MaxTTL: 8, MaxConsecutiveStars: 100}) }},
	}
	fmt.Fprintf(w, "%-14s %-14s %-7s %-13s %s\n", "tool", "field", "varies", "load-balanced", "verdict")
	for _, e := range engines {
		roles, err := HeaderRoles(e.mk, 8)
		if err != nil {
			return err
		}
		verdict := "flow constant (safe)"
		if ViolatesFlowConstancy(roles) {
			verdict = "FLOW IDENTIFIER VARIES (anomalies expected)"
		}
		for i, r := range roles {
			v := ""
			if i == 0 {
				v = verdict
			}
			fmt.Fprintf(w, "%-14s %-14s %-7v %-13v %s\n", e.name, r.Field, r.Varies, r.LoadBalanced, v)
		}
	}
	return nil
}

// recordingTransport captures probes and never answers.
type recordingTransport struct {
	src    netip.Addr
	probes [][]byte
}

func (r *recordingTransport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	r.probes = append(r.probes, append([]byte(nil), probe...))
	return nil, 0, false
}

func (r *recordingTransport) Source() netip.Addr { return r.src }

func rolesFor(t *testing.T, mk func(Transport) Tracer) map[string]FieldRole {
	t.Helper()
	roles, err := HeaderRoles(mk, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]FieldRole, len(roles))
	for _, r := range roles {
		m[r.Field] = r
	}
	return m
}

// TestHeaderFieldRoles regenerates the paper's Fig. 2 claims from the
// actual probe bytes each engine emits.
func TestHeaderFieldRoles(t *testing.T) {
	opts := Options{MaxTTL: 8, MaxConsecutiveStars: 100}

	classicUDP := rolesFor(t, func(tp Transport) Tracer { return NewClassicUDP(tp, opts) })
	if !classicUDP["udp.dport"].Varies {
		t.Error("classic UDP must vary the destination port (#)")
	}
	if !ViolatesFlowConstancy([]FieldRole{classicUDP["udp.dport"]}) {
		t.Error("classic UDP's varying dport must be flagged as load-balanced")
	}

	parisUDP := rolesFor(t, func(tp Transport) Tracer { return NewParisUDP(tp, opts) })
	if parisUDP["udp.sport"].Varies || parisUDP["udp.dport"].Varies {
		t.Error("paris UDP must hold both ports constant")
	}
	if !parisUDP["udp.checksum"].Varies {
		t.Error("paris UDP must vary the checksum (*)")
	}
	if parisUDP["udp.checksum"].LoadBalanced {
		t.Error("the UDP checksum is outside the first four octets; not load-balanced")
	}

	classicICMP := rolesFor(t, func(tp Transport) Tracer { return NewClassicICMP(tp, opts) })
	if !classicICMP["icmp.seq"].Varies || !classicICMP["icmp.checksum"].Varies {
		t.Error("classic ICMP must vary seq and therefore the checksum (#)")
	}

	parisICMP := rolesFor(t, func(tp Transport) Tracer { return NewParisICMP(tp, opts) })
	if !parisICMP["icmp.seq"].Varies || !parisICMP["icmp.id"].Varies {
		t.Error("paris ICMP must vary both seq and the compensating id (*)")
	}
	if parisICMP["icmp.checksum"].Varies {
		t.Error("paris ICMP must keep the checksum — the flow identifier — constant")
	}

	tcpT := rolesFor(t, func(tp Transport) Tracer { return NewTCPTraceroute(tp, opts) })
	if !tcpT["ip.id"].Varies {
		t.Error("tcptraceroute must vary the IP Identification field (+)")
	}
	if tcpT["tcp.sport"].Varies || tcpT["tcp.dport"].Varies || tcpT["tcp.seq"].Varies {
		t.Error("tcptraceroute keeps TCP fields constant")
	}

	parisTCP := rolesFor(t, func(tp Transport) Tracer { return NewParisTCP(tp, opts) })
	if !parisTCP["tcp.seq"].Varies {
		t.Error("paris TCP must vary the sequence number (*)")
	}
	if parisTCP["tcp.sport"].Varies || parisTCP["tcp.dport"].Varies {
		t.Error("paris TCP must hold ports constant")
	}

	// The headline of Fig. 2: classic tools violate flow constancy, the
	// flow-stable tools do not.
	for name, tc := range map[string]struct {
		roles    map[string]FieldRole
		violates bool
	}{
		"classic-udp":   {classicUDP, true},
		"classic-icmp":  {classicICMP, true},
		"paris-udp":     {parisUDP, false},
		"paris-icmp":    {parisICMP, false},
		"paris-tcp":     {parisTCP, false},
		"tcptraceroute": {tcpT, false},
	} {
		var all []FieldRole
		for _, r := range tc.roles {
			all = append(all, r)
		}
		if got := ViolatesFlowConstancy(all); got != tc.violates {
			t.Errorf("%s: ViolatesFlowConstancy = %v, want %v", name, got, tc.violates)
		}
	}
}

func TestWriteHeaderRolesTable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeaderRolesTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"classic-udp", "paris-tcp", "FLOW IDENTIFIER VARIES", "flow constant"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkFig2HeaderRoles regenerates the header-field role table for all
// six probing disciplines from their emitted probe bytes.
func BenchmarkFig2HeaderRoles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := WriteHeaderRolesTable(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
