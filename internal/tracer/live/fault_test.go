package live

import (
	"context"
	"errors"
	"net/netip"
	"strings"
	"syscall"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtest"
	"repro/internal/tracer"
)

// Fault-injection tests for the wheel's error paths as a single trace sees
// them, through a one-handle mux: transient syscall failures on send
// (ENOBUFS, EINTR), fatal socket errors, and cancellation. Everything runs
// over the SimConn (no sleeps: the fake fast-forwards the wheel) and is
// -race clean.

// TestLiveTransientSendFaultDeferred: a WriteBatch that fails with ENOBUFS
// halfway through must not cost the unsent tail any attempts — even with
// Retries: 0 the next wheel turn re-offers the tail and the measured route
// matches the clean baseline exactly.
func TestLiveTransientSendFaultDeferred(t *testing.T) {
	const seed = 7
	net1, dest1 := scenarios[1].build(seed)
	want := parisTrace(t, netsim.NewTransport(net1), tracer.Options{}, dest1)

	mux, fake, dest := newFakeMux(t, scenarios[1].build, seed, SimSchedule{}, 0)
	fake.WriteErr = func(call, n int) (int, error) {
		if call == 0 {
			return n / 2, syscall.ENOBUFS // kernel buffers filled mid-batch
		}
		return n, nil
	}
	got := parisTrace(t, mux.Transport(), tracer.Options{Batch: true}, dest)
	assertMuxDrained(t, mux)
	if !got.Equal(want) {
		t.Errorf("ENOBUFS tail changed the route\ngot:  %v\nwant: %v", got.Addresses(), want.Addresses())
	}
	if fake.writeCalls < 2 {
		t.Errorf("write calls = %d, want a deferred re-send after the fault", fake.writeCalls)
	}
}

// TestLiveTransientSendFaultExhausted: a conn that never stops returning
// EINTR gets exactly maxSendDefers free re-offers per probe, then degrades
// to the attempt-burning path and stars out — bounded work, no livelock.
func TestLiveTransientSendFaultExhausted(t *testing.T) {
	mux, fake, dest := newFakeMux(t, scenarios[1].build, 5, SimSchedule{}, 0)
	fake.WriteErr = func(call, n int) (int, error) { return 0, syscall.EINTR }
	got := parisTrace(t, mux.Transport(), tracer.Options{Batch: true}, dest)
	assertMuxDrained(t, mux)
	if got.Halt != tracer.HaltStars {
		t.Fatalf("halt = %v, want stars", got.Halt)
	}
	for _, h := range got.Hops {
		if !h.Star() {
			t.Fatalf("hop %d resolved despite a send path that never works", h.TTL)
		}
	}
	// One 8-probe window: maxSendDefers deferred offers plus the final
	// attempt-burning one, all batched per wheel turn.
	if want := maxSendDefers + 1; fake.writeCalls != want {
		t.Errorf("write calls = %d, want %d", fake.writeCalls, want)
	}
	if n := fake.SendCount(); n != 0 {
		t.Errorf("%d probes reached the wire through a failing send path", n)
	}
}

// TestLiveFatalSendErrSurfaced: a non-transient send failure must fail the
// probe with the error — not silently star it — and an unbatched trace ends
// with it.
func TestLiveFatalSendErrSurfaced(t *testing.T) {
	mux, fake, dest := newFakeMux(t, scenarios[1].build, 5, SimSchedule{}, 0)
	fake.WriteErr = func(call, n int) (int, error) { return 0, errors.New("device down") }
	_, err := tracer.NewParisUDP(mux.Transport(), tracer.Options{}).Trace(dest)
	if err == nil {
		t.Fatal("trace over a dead send path returned a route")
	}
	assertMuxDrained(t, mux)
	if !strings.Contains(err.Error(), "live: send: device down") {
		t.Errorf("error %q does not carry the send failure", err)
	}
}

// TestLiveReceiveErrorSurfaced: a socket failure on the receive side, with
// no way to reopen the socket, fails the in-flight probes with the wrapped
// error.
func TestLiveReceiveErrorSurfaced(t *testing.T) {
	net2, dest := scenarios[1].build(5)
	fake := &SimConn{}
	fake.Respond = func(probe []byte) ([]byte, bool) {
		fake.closed = true // the socket dies after the send
		return nil, false
	}
	mux := openFakeMux(t, MuxConfig{Source: net2.Source(), Conn: fake})
	_, err := tracer.NewParisUDP(mux.Transport(), tracer.Options{}).Trace(dest)
	if err == nil {
		t.Fatal("trace over a broken receive path returned a route")
	}
	assertMuxDrained(t, mux)
	if !strings.Contains(err.Error(), "live: receive:") {
		t.Errorf("error %q does not carry the receive failure", err)
	}
}

// TestLiveContextCancel: a canceled Context fails the batch's unresolved
// probes with the context error — before any send for a pre-canceled
// context, and at the next wheel turn for a mid-flight cancellation.
func TestLiveContextCancel(t *testing.T) {
	t.Run("pre-canceled", func(t *testing.T) {
		net2, dest := scenarios[1].build(5)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		fake := &SimConn{Respond: simtest.Responder(net2)}
		mux := openFakeMux(t, MuxConfig{Source: net2.Source(), Conn: fake, Context: ctx})
		awaitCancel(mux)
		_, err := tracer.NewParisUDP(mux.Transport(), tracer.Options{}).Trace(dest)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trace error = %v, want context.Canceled", err)
		}
		if n := fake.SendCount(); n != 0 {
			t.Errorf("%d probes sent under a context that was already done", n)
		}
		assertMuxDrained(t, mux)
	})
	t.Run("mid-flight", func(t *testing.T) {
		net2, dest := scenarios[1].build(5)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		fake := &SimConn{}
		fake.Respond = func(probe []byte) ([]byte, bool) {
			cancel() // arrives while the wheel still owes a response
			return nil, false
		}
		mux := openFakeMux(t, MuxConfig{Source: net2.Source(), Conn: fake, Context: ctx, Retries: 5})
		fake.ReadErr = func(int) error { awaitCancel(mux); return nil }
		_, err := tracer.NewParisUDP(mux.Transport(), tracer.Options{}).Trace(dest)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trace error = %v, want context.Canceled", err)
		}
		if n := fake.SendCount(); n != 1 {
			t.Errorf("%d probes sent, want the one in flight when the context ended", n)
		}
		assertMuxDrained(t, mux)
	})
}

// TestLiveResultSlotErrReset: a result slice recycled across batches (the
// Scratch steady state) must not leak a previous batch's Err into a clean
// exchange.
func TestLiveResultSlotErrReset(t *testing.T) {
	net2, dest := scenarios[1].build(5)
	fake := &SimConn{Respond: simtest.Responder(net2)}
	mux := openFakeMux(t, MuxConfig{Source: net2.Source(), Conn: fake})
	tp := mux.Transport()
	probe := buildProbe(t, net2.Source(), dest)

	fail := true
	fake.WriteErr = func(call, n int) (int, error) {
		if fail {
			return 0, errors.New("device down")
		}
		return n, nil
	}
	out := make([]tracer.ProbeResult, 1)
	tp.ExchangeBatch([][]byte{probe}, out)
	if out[0].Err == nil || out[0].OK {
		t.Fatalf("failing batch: Err=%v OK=%v, want a send error", out[0].Err, out[0].OK)
	}

	fail = false
	tp.ExchangeBatch([][]byte{probe}, out)
	if out[0].Err != nil {
		t.Fatalf("recycled slot kept stale Err %v", out[0].Err)
	}
	if !out[0].OK {
		t.Fatal("clean exchange through a recycled slot did not resolve")
	}
	assertMuxDrained(t, mux)
}

// buildProbe crafts a minimal valid Paris-style UDP probe from src to dst
// with a mid-path TTL, enough for the simulator to answer and the match
// layer to key.
func buildProbe(t *testing.T, src, dst netip.Addr) []byte {
	t.Helper()
	uh := &packet.UDP{SrcPort: 33434, DstPort: 33435}
	dgram, err := packet.MarshalUDPInto(nil, src, dst, uh, []byte("probe-01"))
	if err != nil {
		t.Fatal(err)
	}
	probe, err := (&packet.IPv4{TTL: 2, Protocol: packet.ProtoUDP, ID: 21, Src: src, Dst: dst}).MarshalInto(nil, dgram)
	if err != nil {
		t.Fatal(err)
	}
	return probe
}
