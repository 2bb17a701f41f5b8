package live

import (
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// The mux differential harness extends the one-handle one (live_test.go) to
// many workers: N workers trace disjoint destination slices concurrently
// through ONE Mux over ONE SimConn, and every route must be
// identical (tracer.Route.Equal) to a sequential baseline over an
// identically-built network. The topologies are schedule-free — responses
// are pure functions of the probe bytes — so worker interleaving cannot
// legitimately change a route, and any divergence is a mux attribution
// bug. Everything runs on the fake's virtual clock: no sleeps, no
// privileges, race-detector clean.

var (
	_ tracer.Transport         = (*MuxTransport)(nil)
	_ tracer.BatchTransport    = (*MuxTransport)(nil)
	_ tracer.FallibleTransport = (*MuxTransport)(nil)
	_ dropCounter              = (*SimConn)(nil)
)

// muxTopo generates a schedule-free multi-destination topology: per-probe
// randomness (mid-trace flips, per-packet balancing) is zeroed, so every
// response is a pure function of the probe bytes and replaying probes in
// any order or multiplicity yields identical routes.
func muxTopo(t testing.TB, dests int, seed int64) *topo.Scenario {
	t.Helper()
	gc := topo.DefaultGenConfig()
	gc.Seed = seed
	gc.Destinations = dests
	gc.FlipPerProbe = 0
	gc.PPerPacket = 0
	gc.PPerPacketUnequal = 0
	return topo.Generate(gc)
}

// muxBaseline traces every destination sequentially over the plain netsim
// transport — the ground truth the mux must reproduce.
func muxBaseline(t *testing.T, sc *topo.Scenario) []*tracer.Route {
	t.Helper()
	tp := netsim.NewTransport(sc.Net)
	want := make([]*tracer.Route, len(sc.Dests))
	for i, d := range sc.Dests {
		r, err := tracer.NewParisUDP(tp, tracer.Options{}).Trace(d)
		if err != nil {
			t.Fatalf("baseline %v: %v", d, err)
		}
		want[i] = r
	}
	return want
}

// muxTraceAll traces sc's destinations through m with `workers` concurrent
// goroutines over disjoint contiguous slices, batched ladders, each worker
// on a handle of its own.
func muxTraceAll(t *testing.T, m *Mux, sc *topo.Scenario, workers int) []*tracer.Route {
	t.Helper()
	return muxTraceAllVia(t, sc, workers, func() tracer.Transport { return m.Transport() })
}

// muxTraceAllVia is muxTraceAll with each worker's transport made by tpFor.
func muxTraceAllVia(t *testing.T, sc *topo.Scenario, workers int, tpFor func() tracer.Transport) []*tracer.Route {
	t.Helper()
	got := make([]*tracer.Route, len(sc.Dests))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(sc.Dests) / workers
		hi := (w + 1) * len(sc.Dests) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			tp := tpFor()
			for i := lo; i < hi; i++ {
				r, err := tracer.NewParisUDP(tp, tracer.Options{Batch: true}).Trace(sc.Dests[i])
				if err != nil {
					errs[w] = fmt.Errorf("dest %v: %w", sc.Dests[i], err)
					return
				}
				got[i] = r
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	return got
}

// TestMuxMultiWorkerDifferential is the tentpole acceptance test: 8
// workers share one mux over one fake socket pair, under every fault
// schedule, and each of the 16 concurrently-traced routes must equal its
// sequential single-worker baseline.
func TestMuxMultiWorkerDifferential(t *testing.T) {
	const seed, workers, dests = 21, 8, 16
	schedules := []struct {
		name    string
		sched   func() SimSchedule
		retries int
	}{
		{"clean", func() SimSchedule { return SimSchedule{} }, 0},
		{"reorder", func() SimSchedule { return SimSchedule{Reorder: true} }, 0},
		{"duplicate", func() SimSchedule {
			return SimSchedule{Dup: func(int) bool { return true }}
		}, 0},
		{"delay-half", func() SimSchedule {
			return SimSchedule{Delay: func(ord int) int {
				if ord%2 == 0 {
					return 2
				}
				return 0
			}}
		}, 0},
		{"drop-first-attempt+retry", func() SimSchedule {
			seen := make(map[string]bool)
			return SimSchedule{Drop: func(_ int, probe []byte) bool {
				if seen[string(probe)] {
					return false
				}
				seen[string(probe)] = true
				return true
			}}
		}, 1},
	}
	want := muxBaseline(t, muxTopo(t, dests, seed))
	for _, sch := range schedules {
		sc := muxTopo(t, dests, seed)
		fake := &SimConn{Respond: netsimResponder(sc.Net), Sched: sch.sched()}
		m, err := NewMux(MuxConfig{Source: sc.Net.Source(), Conn: fake, Retries: sch.retries})
		if err != nil {
			t.Fatalf("%s: NewMux: %v", sch.name, err)
		}
		got := muxTraceAll(t, m, sc, workers)
		h := m.Health()
		assertMuxDrained(t, m)
		if err := m.Close(); err != nil {
			t.Fatalf("%s: Close: %v", sch.name, err)
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Errorf("%s: dest %v: mux route differs from sequential baseline\ngot:  halt=%v hops=%v\nwant: halt=%v hops=%v",
					sch.name, sc.Dests[i], got[i].Halt, got[i].Addresses(), want[i].Halt, want[i].Addresses())
			}
		}
		if h.InFlight != 0 {
			t.Errorf("%s: %d probes still in flight after all traces completed", sch.name, h.InFlight)
		}
		if h.InFlightPeak == 0 {
			t.Errorf("%s: health never observed traffic: %+v", sch.name, h)
		}
		// Under the retry schedule every response follows a retransmit, so
		// Karn's rule correctly leaves the estimators empty; every other
		// schedule must have sampled RTTs.
		if sch.retries == 0 && h.Destinations == 0 {
			t.Errorf("%s: no destination collected an RTT sample: %+v", sch.name, h)
		}
	}
}

// TestMuxCampaignDifferential runs a full measure.Campaign with 8 workers,
// each holding its own MuxTransport over one shared mux (the -live wiring),
// against a single-worker campaign over the plain simulator transport. The
// materialized pairs must agree route for route.
func TestMuxCampaignDifferential(t *testing.T) {
	const seed, rounds, workers, dests = 23, 2, 8, 16
	sc1 := muxTopo(t, dests, seed)
	camp1, err := measure.NewCampaign(netsim.NewTransport(sc1.Net), measure.Config{
		Dests: sc1.Dests, Rounds: rounds, Workers: 1, PortSeed: 42, Batch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := camp1.Run()
	if err != nil {
		t.Fatal(err)
	}

	sc2 := muxTopo(t, dests, seed)
	fake := &SimConn{Respond: netsimResponder(sc2.Net)}
	m, err := NewMux(MuxConfig{Source: sc2.Net.Source(), Conn: fake, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	camp2, err := measure.NewCampaign(nil, measure.Config{
		Dests: sc2.Dests, Rounds: rounds, Workers: workers, PortSeed: 42, Batch: true,
		TransportFor: func(int) tracer.Transport { return m.Transport() },
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := camp2.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertMuxDrained(t, m)

	for r := range res1.Rounds {
		for i := range res1.Rounds[r] {
			p1, p2 := res1.Rounds[r][i], res2.Rounds[r][i]
			if p1.Outcome != p2.Outcome {
				t.Fatalf("round %d dest %v: outcome %v vs %v", r, p1.Dest, p1.Outcome, p2.Outcome)
			}
			if !p2.Paris.Equal(p1.Paris) || !p2.Classic.Equal(p1.Classic) {
				t.Errorf("round %d dest %v: mux campaign pair differs from baseline", r, p1.Dest)
			}
		}
	}
}

// TestMuxSocketFailureRecovery kills the socket under a multi-worker
// campaign-style trace set: the first read on the original conn fails
// fatally, the mux must redial and re-send every in-flight probe on the
// replacement, and every route must still equal the baseline — zero lost
// probes, one reopen, no errors surfaced to any worker.
func TestMuxSocketFailureRecovery(t *testing.T) {
	const seed, workers, dests = 29, 4, 8
	want := muxBaseline(t, muxTopo(t, dests, seed))
	sc := muxTopo(t, dests, seed)
	responder := netsimResponder(sc.Net)
	fake1 := &SimConn{Respond: responder}
	fake1.ReadErr = func(call int) error {
		if call == 0 {
			return errors.New("fake: network down")
		}
		return nil
	}
	var (
		mu      sync.Mutex
		redials int
		conns   []*SimConn
	)
	m, err := NewMux(MuxConfig{
		Source: sc.Net.Source(), Conn: fake1,
		Redial: func() (PacketConn, error) {
			mu.Lock()
			defer mu.Unlock()
			redials++
			c := &SimConn{Respond: responder}
			conns = append(conns, c)
			return c, nil
		},
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := muxTraceAll(t, m, sc, workers)
	h := m.Health()
	assertMuxDrained(t, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Errorf("dest %v: route differs after socket recovery", sc.Dests[i])
		}
	}
	if h.Reopens != 1 || redials != 1 {
		t.Errorf("reopens=%d redials=%d, want exactly 1 recovery incident", h.Reopens, redials)
	}
	if h.InFlight != 0 {
		t.Errorf("%d probes lost in flight across the reopen", h.InFlight)
	}
	// Every probe the first conn accepted was re-sent on the replacement:
	// the replacement saw at least as many sends as were stranded.
	if fake1.SendCount() == 0 || conns[0].SendCount() < fake1.SendCount() {
		t.Errorf("sends: old conn %d, new conn %d — stranded probes were not all re-sent",
			fake1.SendCount(), conns[0].SendCount())
	}
}

// TestMuxReopenExhaustion drives the recovery path out of budget: every
// read fails and every redial fails, so the in-flight probes must resolve
// with the fatal error (not hang, not star silently), the mux must mark
// itself broken, and subsequent exchanges must fail fast.
func TestMuxReopenExhaustion(t *testing.T) {
	sc := muxTopo(t, 2, 31)
	fake := &SimConn{Respond: netsimResponder(sc.Net)}
	fake.ReadErr = func(int) error { return errors.New("fake: persistent failure") }
	m, err := NewMux(MuxConfig{
		Source: sc.Net.Source(), Conn: fake,
		Redial: func() (PacketConn, error) { return nil, errors.New("fake: redial refused") },
		Sleep:  func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := tracer.NewParisUDP(m.Transport(), tracer.Options{Batch: true}).Trace(sc.Dests[0]); err == nil {
		t.Fatal("trace over a dead socket succeeded")
	}
	// The mux is broken: the next exchange fails immediately, without
	// touching the (dead) socket layer.
	if _, _, _, err := m.Transport().ExchangeErr([]byte{0xde, 0xad}); err == nil {
		t.Fatal("exchange against a broken mux returned no error")
	}
	if h := m.Health(); h.InFlight != 0 {
		t.Fatalf("%d probes leaked in flight through the broken path", h.InFlight)
	}
	assertMuxDrained(t, m)
}

// TestMuxLifecycleNoGoroutineLeak cycles mux start → trace → stop many
// times and requires the goroutine count not to grow: a mux has no
// goroutine of its own to leak, and Close leaves none behind.
func TestMuxLifecycleNoGoroutineLeak(t *testing.T) {
	dest := netip.AddrFrom4([4]byte{198, 51, 100, 9})
	src := netip.AddrFrom4([4]byte{192, 0, 2, 1})
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		fake := &SimConn{Respond: func([]byte) ([]byte, bool) { return nil, false }}
		m, err := NewMux(MuxConfig{Source: src, Conn: fake})
		if err != nil {
			t.Fatal(err)
		}
		// A silent network stars every hop; the trace halts on the
		// consecutive-star rule, exercising register/expire/unregister.
		if _, err := tracer.NewParisUDP(m.Transport(), tracer.Options{Batch: true}).Trace(dest); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
	// Every exchange ran on this goroutine, so the count must settle
	// without sleeping; scheduling slack is absorbed by a yield loop and a
	// small tolerance.
	for i := 0; i < 100 && runtime.NumGoroutine() > before+2; i++ {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines grew from %d to %d across 50 mux lifecycles", before, after)
	}
}

// TestMuxPressureStateMachine drives the degradation detector directly:
// kernel-drop increases raise the shift one level per turn up to the cap,
// sustained read-lag counts as pressure without drop counts, and clean
// turns decay the shift back down — with every event counted.
func TestMuxPressureStateMachine(t *testing.T) {
	m := &Mux{timeout: 2 * time.Second, floor: 100 * time.Millisecond,
		est: make(map[[4]byte]*rttEstimator)}
	conn := &SimConn{}

	conn.SetKernelDrops(10)
	if !m.pressureLocked(conn) {
		t.Fatal("first kernel-drop increase did not change the degrade level")
	}
	if m.degrade != 1 || m.pressureEvents != 1 || m.kdrops != 10 {
		t.Fatalf("after first event: degrade=%d events=%d kdrops=%d", m.degrade, m.pressureEvents, m.kdrops)
	}
	// Drops keep climbing: one level per turn, saturating at the cap,
	// events counted past it.
	for i := 0; i < 5; i++ {
		conn.SetKernelDrops(uint64(20 + i*10))
		m.pressureLocked(conn)
	}
	if m.degrade != maxDegradeShift {
		t.Fatalf("degrade=%d, want saturated at %d", m.degrade, maxDegradeShift)
	}
	if m.pressureEvents != 6 {
		t.Fatalf("pressureEvents=%d, want every one of 6 counted", m.pressureEvents)
	}
	// The widened timeout still respects the cap.
	if got := m.rtoLocked(nil); got != m.timeout {
		t.Fatalf("degraded no-sample RTO = %v, want capped at %v", got, m.timeout)
	}
	// Clean turns decay one level per degradeDecayTurns.
	for i := 0; i < degradeDecayTurns; i++ {
		m.pressureLocked(conn)
	}
	if m.degrade != maxDegradeShift-1 {
		t.Fatalf("degrade=%d after %d clean turns, want %d", m.degrade, degradeDecayTurns, maxDegradeShift-1)
	}
	// Read-loop lag alone (no kernel counter movement) is also pressure.
	m.lagStreak = lagPressureStreak
	if !m.pressureLocked(conn) {
		t.Fatal("sustained read lag did not raise the degrade level")
	}
}

// TestMuxPressureCallback runs pressure end to end: the fake's kernel-drop
// counter climbs while a trace is in flight, and OnPressure must fire
// outside the lock with a consistent health snapshot.
func TestMuxPressureCallback(t *testing.T) {
	sc := muxTopo(t, 2, 37)
	fake := &SimConn{}
	inner := netsimResponder(sc.Net)
	fake.Respond = func(probe []byte) ([]byte, bool) {
		fake.KDrops += 3 // fake.mu is held by WriteBatch here
		return inner(probe)
	}
	var (
		mu        sync.Mutex
		snapshots []tracer.MuxHealth
	)
	m, err := NewMux(MuxConfig{Source: sc.Net.Source(), Conn: fake,
		OnPressure: func(h tracer.MuxHealth) {
			mu.Lock()
			snapshots = append(snapshots, h)
			mu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tracer.NewParisUDP(m.Transport(), tracer.Options{Batch: true}).Trace(sc.Dests[0]); err != nil {
		t.Fatal(err)
	}
	h := m.Health()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if h.PressureEvents == 0 || h.KernelDrops == 0 {
		t.Fatalf("kernel drops went unnoticed: %+v", h)
	}
	if h.DegradeShift < 1 || h.DegradeShift > maxDegradeShift {
		t.Fatalf("degrade shift %d outside [1, %d]", h.DegradeShift, maxDegradeShift)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snapshots) == 0 {
		t.Fatal("OnPressure never fired")
	}
	for _, s := range snapshots {
		if s.DegradeShift < 1 || s.DegradeShift > maxDegradeShift {
			t.Fatalf("callback snapshot outside bounds: %+v", s)
		}
	}
}

// TestMuxAdaptiveTimeoutClamps checks the live estimator wiring: after a
// clean trace every per-destination RTO reported by Health sits inside
// [TimeoutFloor, Timeout] (the fake's sub-millisecond RTTs clamp to the
// floor), and a schedule that loses every first transmission leaves the
// estimators empty — Karn's rule, end to end.
func TestMuxAdaptiveTimeoutClamps(t *testing.T) {
	const floor, cap = 50 * time.Millisecond, time.Second
	sc := muxTopo(t, 4, 41)
	fake := &SimConn{Respond: netsimResponder(sc.Net)}
	m, err := NewMux(MuxConfig{Source: sc.Net.Source(), Conn: fake,
		Timeout: cap, TimeoutFloor: floor})
	if err != nil {
		t.Fatal(err)
	}
	muxTraceAll(t, m, sc, 2)
	h := m.Health()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if h.Destinations == 0 {
		t.Fatal("no destination collected an RTT sample on a clean trace")
	}
	if h.RTOMinNs < int64(floor) || h.RTOMaxNs > int64(cap) {
		t.Fatalf("RTO range [%d, %d]ns escapes clamps [%d, %d]ns",
			h.RTOMinNs, h.RTOMaxNs, int64(floor), int64(cap))
	}

	// Karn: drop every first transmission, answer only retransmits. No
	// response is then attributable to a single send, so no estimator may
	// receive a sample.
	sc2 := muxTopo(t, 4, 41)
	seen := make(map[string]bool)
	fake2 := &SimConn{Respond: netsimResponder(sc2.Net),
		Sched: SimSchedule{Drop: func(_ int, probe []byte) bool {
			if seen[string(probe)] {
				return false
			}
			seen[string(probe)] = true
			return true
		}}}
	m2, err := NewMux(MuxConfig{Source: sc2.Net.Source(), Conn: fake2, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	muxTraceAll(t, m2, sc2, 2)
	h2 := m2.Health()
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	if h2.Destinations != 0 {
		t.Fatalf("%d destinations sampled RTTs from retransmitted probes (Karn violation)", h2.Destinations)
	}
}

// TestMuxRetriesExhausted pins the wheel's attempt accounting over a batched
// window: under a drop-everything schedule every probe is sent exactly
// 1+Retries times and stars cleanly.
func TestMuxRetriesExhausted(t *testing.T) {
	const retries = 2
	sc := muxTopo(t, 1, 43)
	fake := &SimConn{Respond: netsimResponder(sc.Net),
		Sched: SimSchedule{Drop: func(int, []byte) bool { return true }}}
	m, err := NewMux(MuxConfig{Source: sc.Net.Source(), Conn: fake, Retries: retries})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tracer.NewParisUDP(m.Transport(), tracer.Options{Batch: true}).Trace(sc.Dests[0])
	if err != nil {
		t.Fatal(err)
	}
	assertMuxDrained(t, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Halt != tracer.HaltStars {
		t.Fatalf("halt = %v, want stars", got.Halt)
	}
	if want := 8 * (1 + retries); fake.SendCount() != want {
		t.Errorf("sent %d probes, want %d (8 probes x %d attempts)", fake.SendCount(), want, 1+retries)
	}
}
