package tracer

import (
	"reflect"
	"testing"

	"repro/internal/packet"
)

// Edge cases of the windowed ladder that the differential sweeps do not
// pin: a star run whose halt lands exactly on a window boundary, a path
// hint that overshoots MaxTTL, and every batch option set over a transport
// that cannot batch.

// scriptedDeadEnd answers Time Exceeded below hop silentFrom and nothing
// from there on — a path that never terminates, so only the star-run rule
// can halt the trace.
func scriptedDeadEnd(t *testing.T, silentFrom int) *batchCaptureTransport {
	tp := &batchCaptureTransport{captureTransport: captureTransport{src: tSrc}}
	tp.respond = func(i int, probe []byte) []byte {
		hdr, _, err := packet.ParseIPv4(probe)
		if err != nil {
			t.Fatal(err)
		}
		hop := int(hdr.TTL)
		if hop < silentFrom {
			return timeExceededFrom(t, router(hop), probe, 255-uint8(hop), uint16(i+1))
		}
		return nil
	}
	return tp
}

// TestTraceBatchedStarRunAtWindowBoundary makes the MaxConsecutiveStars-th
// star the final result of a window: the ladder must halt there, match the
// sequential loop hop for hop, and submit no batch beyond the boundary.
func TestTraceBatchedStarRunAtWindowBoundary(t *testing.T) {
	const (
		silentFrom = 5 // TTLs 1-4 respond; 5 and beyond never do
		window     = 4
		stars      = 4 // star run 5..8 ends exactly at window [5-8]'s edge
	)
	opts := Options{MaxTTL: 30, MaxConsecutiveStars: stars}
	want, err := NewParisUDP(scriptedDeadEnd(t, silentFrom), opts).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if want.Halt != HaltStars || len(want.Hops) != silentFrom-1+stars {
		t.Fatalf("sequential baseline: halt=%v hops=%d, want stars after hop %d",
			want.Halt, len(want.Hops), silentFrom-1+stars)
	}

	bopts := opts
	bopts.Batch = true
	bopts.BatchWindow = window
	tp := scriptedDeadEnd(t, silentFrom)
	got, err := NewParisUDP(tp, bopts).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("batched route differs from sequential at a boundary-aligned star run\ngot:  %+v\nwant: %+v", got, want)
	}
	if !reflect.DeepEqual(tp.batches, []int{window, window}) {
		t.Errorf("batches = %v, want [%d %d]: the star-run halt must not submit a third window", tp.batches, window, window)
	}
}

// TestTraceBatchedPathHintBeyondMaxTTL hands the first window a hint longer
// than the whole ladder: the window must clamp to MaxTTL, producing one
// batch of exactly the ladder length and the same max-ttl halt as the
// sequential loop.
func TestTraceBatchedPathHintBeyondMaxTTL(t *testing.T) {
	const maxTTL = 6
	opts := Options{MaxTTL: maxTTL}
	want, err := NewParisUDP(scriptedDeadEnd(t, 99), opts).Trace(tDest) // never terminal
	if err != nil {
		t.Fatal(err)
	}
	if want.Halt != HaltMaxTTL || len(want.Hops) != maxTTL {
		t.Fatalf("sequential baseline: halt=%v hops=%d, want max-ttl at %d", want.Halt, len(want.Hops), maxTTL)
	}

	bopts := opts
	bopts.Batch = true
	bopts.PathHint = maxTTL + 10
	tp := scriptedDeadEnd(t, 99)
	got, err := NewParisUDP(tp, bopts).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("batched route with an overlong hint differs from sequential\ngot:  %+v\nwant: %+v", got, want)
	}
	if !reflect.DeepEqual(tp.batches, []int{maxTTL}) {
		t.Errorf("batches = %v, want a single clamped batch of %d", tp.batches, maxTTL)
	}
}

// TestTraceBatchFallbackWithBatchOptions points every batch option —
// window, hint, scratch, multiple probes per hop — at a transport that
// implements only Transport: the ladder must stay at one TTL a window,
// match the unbatched route exactly, and send not one probe more.
func TestTraceBatchFallbackWithBatchOptions(t *testing.T) {
	const pathLen = 6
	base := Options{MaxTTL: 20, ProbesPerHop: 2}
	want, err := NewParisUDP(scriptedChain(t, pathLen), base).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}

	opts := base
	opts.Batch = true
	opts.BatchWindow = 4
	opts.PathHint = 3
	opts.Scratch = NewScratch()
	tp := scriptedChain(t, pathLen) // captureTransport: no ExchangeBatch method
	got, err := NewParisUDP(tp, opts).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fallback trace with batch options differs from sequential\ngot:  %+v\nwant: %+v", got, want)
	}
	if wantProbes := pathLen * base.ProbesPerHop; len(tp.probes) != wantProbes {
		t.Errorf("fallback sent %d probes, want %d (no window overshoot on the sequential path)", len(tp.probes), wantProbes)
	}
}
