package tracer

import (
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
)

// batchCaptureTransport extends the scripted captureTransport with the
// BatchTransport contract, recording the size of every batch submitted.
type batchCaptureTransport struct {
	captureTransport
	batches []int
}

func (b *batchCaptureTransport) ExchangeBatch(probes [][]byte, out []ProbeResult) {
	b.batches = append(b.batches, len(probes))
	for i, p := range probes {
		resp, rtt, ok := b.Exchange(p)
		out[i].OK = ok
		out[i].RTT = rtt
		if ok {
			out[i].Resp = append(out[i].Resp[:0], resp...)
		} else {
			out[i].Resp = out[i].Resp[:0]
		}
	}
}

// scriptedBatchChain is scriptedChain's batching twin: Time Exceeded from
// router(i) below hop n, Port Unreachable from the destination at hop n and
// beyond.
func scriptedBatchChain(t *testing.T, n int) *batchCaptureTransport {
	tp := &batchCaptureTransport{captureTransport: captureTransport{src: tSrc}}
	tp.respond = func(i int, probe []byte) []byte {
		hdr, _, err := packet.ParseIPv4(probe)
		if err != nil {
			t.Fatal(err)
		}
		hop := int(hdr.TTL)
		if hop < n {
			return timeExceededFrom(t, router(hop), probe, 255-uint8(hop), uint16(i+1))
		}
		return portUnreachableFrom(t, tDest, probe)
	}
	return tp
}

// failingChain is a scripted chain that cannot batch and can fail: the
// exchange of probe number failAt returns errScripted instead of a response.
type failingChain struct {
	*captureTransport
	failAt int
}

var errScripted = errors.New("scripted exchange failure")

func (f failingChain) ExchangeErr(probe []byte) ([]byte, time.Duration, bool, error) {
	if len(f.probes) == f.failAt {
		f.probes = append(f.probes, append([]byte(nil), probe...))
		return nil, 0, false, errScripted
	}
	resp, rtt, ok := f.Exchange(probe)
	return resp, rtt, ok, nil
}

// TestTraceBatchedMatchesSequential sweeps window sizes, hints, and probes
// per hop, requiring the ladder to produce at every window a Route identical
// hop for hop (and attempt for attempt) to the one it produces over a
// transport that cannot batch, one TTL at a time; and a failed exchange to
// end the trace at its TTL either way.
func TestTraceBatchedMatchesSequential(t *testing.T) {
	const pathLen = 9
	mk := func(batch bool, window, hint, probesPerHop int) *Route {
		opts := Options{
			MaxTTL: 20, ProbesPerHop: probesPerHop,
			Batch: batch, BatchWindow: window, PathHint: hint,
		}
		var tp Transport
		if batch {
			tp = scriptedBatchChain(t, pathLen)
		} else {
			tp = scriptedChain(t, pathLen)
		}
		rt, err := NewParisUDP(tp, opts).Trace(tDest)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	for _, probes := range []int{1, 3} {
		want := mk(false, 0, 0, probes)
		if len(want.Hops) != pathLen || want.Halt != HaltDestination {
			t.Fatalf("sequential baseline: %d hops halt %v, want %d hops destination",
				len(want.Hops), want.Halt, pathLen)
		}
		for _, window := range []int{0, 1, 3, 8, 100} {
			for _, hint := range []int{0, pathLen, pathLen - 4, pathLen + 5} {
				got := mk(true, window, hint, probes)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("probes=%d window=%d hint=%d: batched route differs from sequential\ngot:  %+v\nwant: %+v",
						probes, window, hint, got, want)
				}
			}
		}
	}

	// The second of three attempts at TTL 4 fails. A window is whole TTLs, so
	// the third attempt still goes out before the error ends the trace — and
	// nothing past that TTL does, batching asked for or not.
	const failTTL, perHop = 4, 3
	for _, batch := range []bool{false, true} {
		tp := failingChain{scriptedChain(t, pathLen), (failTTL-1)*perHop + 1}
		rt, err := NewParisUDP(tp, Options{MaxTTL: 20, ProbesPerHop: perHop, Batch: batch}).Trace(tDest)
		if rt != nil || !errors.Is(err, errScripted) {
			t.Fatalf("batch=%v: route %v, error %v; want no route and the scripted failure", batch, rt, err)
		}
		if want := fmt.Sprintf("exchange ttl=%d", failTTL); !strings.Contains(err.Error(), want) {
			t.Errorf("batch=%v: error %q does not name %q", batch, err, want)
		}
		if len(tp.probes) != failTTL*perHop {
			t.Errorf("batch=%v: %d probes sent, want %d (every attempt through TTL %d, none past it)",
				batch, len(tp.probes), failTTL*perHop, failTTL)
		}
	}
}

// TestTraceBatchedScratchReuse traces twice through one Scratch and checks
// an exact PathHint finishes the whole trace in a single batch of exactly
// the ladder length — the zero-overshoot steady state campaigns run in.
func TestTraceBatchedScratchReuse(t *testing.T) {
	const pathLen = 7
	sc := NewScratch()
	tp := scriptedBatchChain(t, pathLen)
	opts := Options{MaxTTL: 30, Batch: true, PathHint: pathLen, Scratch: sc}
	first, err := NewParisUDP(tp, opts).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Hops) != pathLen {
		t.Fatalf("got %d hops, want %d", len(first.Hops), pathLen)
	}
	if !reflect.DeepEqual(tp.batches, []int{pathLen}) {
		t.Fatalf("batches = %v, want a single batch of %d (exact hint, no overshoot)", tp.batches, pathLen)
	}
	tp.batches = nil
	second, err := NewParisUDP(tp, opts).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tp.batches, []int{pathLen}) {
		t.Fatalf("second trace batches = %v, want [%d]", tp.batches, pathLen)
	}
	if !sameHops(first.Hops, second.Hops) {
		t.Error("second trace through the same Scratch changed the measured hops")
	}
}

func sameHops(a, b []Hop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// IPID advances with the global probe index; everything else
		// must be stable across reuse.
		x, y := a[i], b[i]
		x.IPID, y.IPID = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// TestTraceBatchFallback sets Options.Batch against a transport that does
// not implement BatchTransport and expects the ladder to stay at one TTL a
// window, producing the same route with no probe past the terminal hop.
func TestTraceBatchFallback(t *testing.T) {
	const pathLen = 6
	want, err := NewParisUDP(scriptedChain(t, pathLen), Options{MaxTTL: 20}).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	tp := scriptedChain(t, pathLen) // captureTransport: no ExchangeBatch method
	got, err := NewParisUDP(tp, Options{MaxTTL: 20, Batch: true}).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("batch-requested trace over a non-batching transport differs from sequential\ngot:  %+v\nwant: %+v", got, want)
	}
	if len(tp.probes) != pathLen {
		t.Errorf("fallback sent %d probes, want %d", len(tp.probes), pathLen)
	}
}

// hostUnreachableFrom builds a Destination Unreachable (!H) response.
func hostUnreachableFrom(t *testing.T, from netip.Addr, probe []byte) []byte {
	t.Helper()
	m, err := packet.DestUnreachable(packet.CodeHostUnreachable, probe)
	if err != nil {
		t.Fatal(err)
	}
	body, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, err := packet.ParseIPv4(probe)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&packet.IPv4{TTL: 60, Protocol: packet.ProtoICMP, Src: from, Dst: hdr.Src}).MarshalInto(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHaltPrefersRecordedHop pins the halt-classification rule: when the
// destination's Port Unreachable is the recorded hop of the terminal TTL, a
// sibling attempt's Host Unreachable must not flip the halt to unreachable.
func TestHaltPrefersRecordedHop(t *testing.T) {
	const pathLen = 4
	tp := &captureTransport{src: tSrc}
	tp.respond = func(i int, probe []byte) []byte {
		hdr, _, err := packet.ParseIPv4(probe)
		if err != nil {
			t.Fatal(err)
		}
		hop := int(hdr.TTL)
		if hop < pathLen {
			return timeExceededFrom(t, router(hop), probe, 255-uint8(hop), uint16(i+1))
		}
		// Terminal TTL: the first attempt reaches the destination, the
		// second draws !H from a router on a stale path.
		if i%2 == 0 {
			return portUnreachableFrom(t, tDest, probe)
		}
		return hostUnreachableFrom(t, router(99), probe)
	}
	rt, err := NewParisUDP(tp, Options{MaxTTL: 20, ProbesPerHop: 2}).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Halt != HaltDestination {
		t.Errorf("halt = %v, want destination (the recorded hop reached the destination)", rt.Halt)
	}
	if !rt.Reached() {
		t.Error("Reached() = false for a route whose recorded terminal hop answered")
	}

	// Converse: the recorded hop is the unreachable (first attempt a
	// star, second !H) — the halt must stay unreachable.
	tp2 := &captureTransport{src: tSrc}
	tp2.respond = func(i int, probe []byte) []byte {
		hdr, _, err := packet.ParseIPv4(probe)
		if err != nil {
			t.Fatal(err)
		}
		hop := int(hdr.TTL)
		if hop < pathLen {
			return timeExceededFrom(t, router(hop), probe, 255-uint8(hop), uint16(i+1))
		}
		if i%2 == 0 {
			return nil // star
		}
		return hostUnreachableFrom(t, router(99), probe)
	}
	rt2, err := NewParisUDP(tp2, Options{MaxTTL: 20, ProbesPerHop: 2}).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if rt2.Halt != HaltUnreachable {
		t.Errorf("halt = %v, want unreachable (the recorded hop is the !H)", rt2.Halt)
	}
}
