package netsim

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"repro/internal/tracer"
)

// stubTransport answers every probe affirmatively and records what reached
// it, and in how many batches, so tests can observe exactly which probes the
// fault layer forwarded.
type stubTransport struct {
	src     netip.Addr
	seen    [][]byte
	batches int
}

func (s *stubTransport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	s.batches++
	for i, p := range probes {
		s.seen = append(s.seen, append([]byte(nil), p...))
		out[i].Answer([]byte{0xAB}, time.Millisecond)
	}
}

func (s *stubTransport) Source() netip.Addr { return s.src }

// exchangeOne exchanges one probe as a batch of one and returns its result,
// failure included.
func exchangeOne(tp tracer.Transport, probe []byte) tracer.ProbeResult {
	out := make([]tracer.ProbeResult, 1)
	tp.ExchangeBatch([][]byte{probe}, out)
	return out[0]
}

func probeFor(dst netip.Addr) []byte {
	p := make([]byte, 28)
	b := dst.As4()
	copy(p[16:20], b[:])
	return p
}

func TestScheduleForDeterministic(t *testing.T) {
	plan := FaultPlan{
		Seed:           7,
		TransientEvery: 3, TransientStart: 1, TransientLen: 2,
		BlackholeEvery: 5, BlackholeStart: 4,
		DropEvery: 2, DropStart: 0, DropLen: 3,
	}
	anyFaulty, anyClean := false, false
	for i := 0; i < 64; i++ {
		dst := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		a := plan.ScheduleFor(dst)
		b := plan.ScheduleFor(dst)
		if a != b {
			t.Fatalf("ScheduleFor(%v) not deterministic: %+v vs %+v", dst, a, b)
		}
		if a != (DestSchedule{}) {
			anyFaulty = true
		} else {
			anyClean = true
		}
	}
	if !anyFaulty || !anyClean {
		t.Fatalf("expected a mix of faulty and clean destinations (faulty=%v clean=%v)", anyFaulty, anyClean)
	}
	// A different seed must produce a different affliction pattern.
	other := plan
	other.Seed = 8
	diff := false
	for i := 0; i < 64 && !diff; i++ {
		dst := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		diff = plan.ScheduleFor(dst) != other.ScheduleFor(dst)
	}
	if !diff {
		t.Fatal("seeds 7 and 8 produced identical schedules for 64 destinations")
	}
}

func TestFaultTransientWindow(t *testing.T) {
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	// Every=1 selects every destination, so the schedule is certain.
	ft := WrapFaults(&stubTransport{}, FaultPlan{Seed: 1, TransientEvery: 1, TransientStart: 1, TransientLen: 2})
	probe := probeFor(dst)
	wantErr := []bool{false, true, true, false, false}
	for ord, want := range wantErr {
		r := exchangeOne(ft, probe)
		if (r.Err != nil) != want {
			t.Fatalf("ordinal %d: err=%v, want error=%v", ord, r.Err, want)
		}
		if r.Err != nil {
			if r.OK || len(r.Resp) != 0 {
				t.Fatalf("ordinal %d: errored exchange leaked ok=%v resp=%v", ord, r.OK, r.Resp)
			}
		} else if !r.OK {
			t.Fatalf("ordinal %d: clean exchange did not succeed", ord)
		}
	}
	if got := ft.InjectedErrors(); got != 2 {
		t.Fatalf("InjectedErrors = %d, want 2", got)
	}
}

func TestFaultBlackholePersists(t *testing.T) {
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 2})
	ft := WrapFaults(&stubTransport{}, FaultPlan{Seed: 1, BlackholeEvery: 1, BlackholeStart: 2})
	probe := probeFor(dst)
	for ord := 0; ord < 10; ord++ {
		err := exchangeOne(ft, probe).Err
		want := ord >= 2
		if (err != nil) != want {
			t.Fatalf("ordinal %d: err=%v, want error=%v", ord, err, want)
		}
	}
}

func TestFaultDropBurstIsStarNotError(t *testing.T) {
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 3})
	inner := &stubTransport{}
	ft := WrapFaults(inner, FaultPlan{Seed: 1, DropEvery: 1, DropStart: 1, DropLen: 2})
	probe := probeFor(dst)
	wantStar := []bool{false, true, true, false}
	for ord, want := range wantStar {
		r := exchangeOne(ft, probe)
		if r.Err != nil {
			t.Fatalf("ordinal %d: drop produced an error: %v", ord, r.Err)
		}
		if r.OK == want {
			t.Fatalf("ordinal %d: ok=%v, want star=%v", ord, r.OK, want)
		}
		if want && len(r.Resp) != 0 {
			t.Fatalf("ordinal %d: star carried a response", ord)
		}
	}
	// Dropped probes must not have reached the inner transport.
	if len(inner.seen) != 2 {
		t.Fatalf("inner transport saw %d probes, want 2", len(inner.seen))
	}
	if got := ft.InjectedDrops(); got != 2 {
		t.Fatalf("InjectedDrops = %d, want 2", got)
	}
}

// TestFaultExchangeDegradesErrorToStar holds the single-probe error rule:
// tracer.Exchange, which has no error channel, reads an injected failure as
// a star, while ExchangeBatch reports it in ProbeResult.Err.
func TestFaultExchangeDegradesErrorToStar(t *testing.T) {
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 4})
	ft := WrapFaults(&stubTransport{}, FaultPlan{Seed: 1, BlackholeEvery: 1})
	resp, rtt, ok := tracer.Exchange(ft, probeFor(dst))
	if ok || resp != nil || rtt != 0 {
		t.Fatalf("Exchange over blackhole returned resp=%v rtt=%v ok=%v, want star", resp, rtt, ok)
	}
	if r := exchangeOne(ft, probeFor(dst)); r.Err == nil || r.OK {
		t.Fatalf("ExchangeBatch over blackhole returned %+v, want an Err", r)
	}
}

func TestFaultBatchSubsetPassthrough(t *testing.T) {
	// Pick destinations on both sides of the schedule hash so the batch
	// mixes clean and afflicted probes with certainty.
	plan := FaultPlan{Seed: 3, BlackholeEvery: 2}
	var faulted, clean []netip.Addr
	for i := 1; i < 64 && (len(faulted) < 2 || len(clean) < 2); i++ {
		dst := netip.AddrFrom4([4]byte{10, 0, 0, byte(i)})
		if plan.ScheduleFor(dst).Blackhole {
			faulted = append(faulted, dst)
		} else {
			clean = append(clean, dst)
		}
	}
	if len(faulted) < 2 || len(clean) < 2 {
		t.Fatalf("seed 3 did not split destinations (faulted=%d clean=%d)", len(faulted), len(clean))
	}
	inner := &stubTransport{}
	ft := WrapFaults(inner, plan)
	order := []netip.Addr{clean[0], faulted[0], clean[1], faulted[1]}
	probes := make([][]byte, len(order))
	for i, d := range order {
		probes[i] = probeFor(d)
	}
	out := make([]tracer.ProbeResult, len(probes))
	ft.ExchangeBatch(probes, out)

	for i, d := range order {
		isFaulted := i == 1 || i == 3
		if isFaulted {
			if out[i].Err == nil {
				t.Fatalf("slot %d (%v): Err = nil, want an injected error", i, d)
			}
			if out[i].OK || len(out[i].Resp) != 0 {
				t.Fatalf("slot %d (%v): faulted slot carries a result", i, d)
			}
		} else {
			if out[i].Err != nil || !out[i].OK {
				t.Fatalf("slot %d (%v): err=%v ok=%v, want clean success", i, d, out[i].Err, out[i].OK)
			}
		}
	}
	if inner.batches != 1 {
		t.Fatalf("inner saw %d batches, want 1", inner.batches)
	}
	if len(inner.seen) != 2 {
		t.Fatalf("inner saw %d probes, want the 2 clean ones", len(inner.seen))
	}
	// Clean probes pass through in submission order.
	for j, d := range []netip.Addr{clean[0], clean[1]} {
		b := d.As4()
		if got := inner.seen[j][16:20]; string(got) != string(b[:]) {
			t.Fatalf("pass-through probe %d targets %v, want %v", j, got, d)
		}
	}
}

func TestFaultBatchAllFaultedSkipsInner(t *testing.T) {
	inner := &stubTransport{}
	ft := WrapFaults(inner, FaultPlan{Seed: 1, BlackholeEvery: 1})
	probes := [][]byte{probeFor(netip.AddrFrom4([4]byte{10, 0, 0, 9}))}
	out := make([]tracer.ProbeResult, 1)
	ft.ExchangeBatch(probes, out)
	if inner.batches != 0 || len(inner.seen) != 0 {
		t.Fatalf("fully-faulted batch still reached inner transport")
	}
	if out[0].Err == nil {
		t.Fatal("faulted slot has nil Err")
	}
}

func TestFaultBatchStaleSlotReset(t *testing.T) {
	// A result slot recycled from a previous batch (Scratch) must not leak
	// its old Err/Resp/OK into a later drop or clean exchange.
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 5})
	inner := &stubTransport{}
	ft := WrapFaults(inner, FaultPlan{Seed: 1, DropEvery: 1, DropStart: 0, DropLen: 1})
	probes := [][]byte{probeFor(dst)}
	stale := errors.New("stale error from a recycled slot")
	out := []tracer.ProbeResult{{Resp: []byte{1, 2, 3}, OK: true, RTT: time.Second, Err: stale}}
	ft.ExchangeBatch(probes, out) // ordinal 0: drop
	if out[0].Err != nil || out[0].OK || len(out[0].Resp) != 0 || out[0].RTT != 0 {
		t.Fatalf("dropped slot not fully reset: %+v", out[0])
	}
	ft.ExchangeBatch(probes, out) // ordinal 1: clean
	if out[0].Err != nil || !out[0].OK {
		t.Fatalf("clean slot not reset after reuse: %+v", out[0])
	}
}

func TestFaultPanicWindow(t *testing.T) {
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 7})
	inner := &stubTransport{}
	ft := WrapFaults(inner, FaultPlan{Seed: 1, PanicEvery: 1, PanicStart: 1, PanicLen: 2})
	probe := probeFor(dst)

	// Ordinal 0: clean.
	if err := exchangeOne(ft, probe).Err; err != nil {
		t.Fatalf("ordinal 0: %v", err)
	}
	// Ordinals 1 and 2: the window panics, consuming the ordinal first.
	for ord := 1; ord <= 2; ord++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ordinal %d did not panic", ord)
				}
			}()
			exchangeOne(ft, probe)
		}()
	}
	if ft.InjectedPanics() != 2 {
		t.Fatalf("injected panics %d, want 2", ft.InjectedPanics())
	}
	// Ordinal 3: past the window, clean again.
	if !exchangeOne(ft, probe).OK {
		t.Fatal("ordinal 3 should pass through")
	}
	if len(inner.seen) != 2 {
		t.Fatalf("inner saw %d probes, want 2 (ordinals 0 and 3)", len(inner.seen))
	}
}

func TestFaultBatchPanicAtPosition(t *testing.T) {
	// A panic inside a batch must fire at the afflicted probe's position,
	// before later probes consume ordinals — identical to a run of one-probe
	// batches, so batched and unbatched campaigns agree on fault accounting.
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 7})
	inner := &stubTransport{}
	ft := WrapFaults(inner, FaultPlan{Seed: 1, PanicEvery: 1, PanicStart: 1, PanicLen: 1})
	probes := [][]byte{probeFor(dst), probeFor(dst), probeFor(dst)}
	out := make([]tracer.ProbeResult, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("batch did not panic")
			}
		}()
		ft.ExchangeBatch(probes, out)
	}()
	// Ordinals consumed: 0 (clean) and 1 (panic); probe 3 never decided.
	if got := ft.InjectedPanics(); got != 1 {
		t.Fatalf("injected panics %d, want 1", got)
	}
	if err := exchangeOne(ft, probeFor(dst)).Err; err != nil {
		t.Fatalf("ordinal 2 after the window should be clean: %v", err)
	}
}

func TestFaultStallParksUntilRelease(t *testing.T) {
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 7})
	inner := &stubTransport{}
	ft := WrapFaults(inner, FaultPlan{Seed: 1, StallEvery: 1, StallStart: 0, StallLen: 1})
	probe := probeFor(dst)

	type result struct {
		ok  bool
		err error
	}
	got := make(chan result)
	go func() {
		r := exchangeOne(ft, probe)
		got <- result{r.OK, r.Err}
	}()
	// The exchange is parked: the ordinal is consumed (the stall counter
	// ticks) but no result arrives until release.
	for ft.InjectedStalls() == 0 {
		// Busy-wait on the counter; the parked goroutine is off-mutex.
	}
	select {
	case r := <-got:
		t.Fatalf("stalled exchange returned early: %+v", r)
	default:
	}
	ft.ReleaseStalls()
	r := <-got
	if r.err != nil || r.ok {
		t.Fatalf("released stall should resolve as a star: %+v", r)
	}
	// After release, later stall-window hits fall straight through as
	// drops, and ReleaseStalls is idempotent.
	ft.ReleaseStalls()
	if r := exchangeOne(ft, probe); r.Err != nil || !r.OK {
		t.Fatalf("ordinal 1 outside the window should pass: ok=%v err=%v", r.OK, r.Err)
	}
	if len(inner.seen) != 1 {
		t.Fatalf("inner saw %d probes, want 1", len(inner.seen))
	}
}
