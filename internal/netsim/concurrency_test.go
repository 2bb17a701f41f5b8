package netsim_test

// Concurrency tests for the forwarding engine, exercised through the full
// tracer stack (external test package: topo imports netsim, so these live
// in netsim_test).

import (
	"net/netip"
	"sync"
	"testing"

	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// traceSummary is the schedule-independent view of a route: everything a
// trace records except IP IDs and RTTs, which depend on the global arrival
// order at shared routers (as they do on real hardware).
type traceSummary struct {
	addrs    []netip.Addr
	kinds    []tracer.ReplyKind
	probeTTL []int
	respTTL  []int
	halt     tracer.HaltReason
}

func summarize(rt *tracer.Route) traceSummary {
	s := traceSummary{halt: rt.Halt}
	for _, h := range rt.Hops {
		s.addrs = append(s.addrs, h.Addr)
		s.kinds = append(s.kinds, h.Kind)
		s.probeTTL = append(s.probeTTL, h.ProbeTTL)
		s.respTTL = append(s.respTTL, h.RespTTL)
	}
	return s
}

func (a traceSummary) equal(b traceSummary) bool {
	if a.halt != b.halt || len(a.addrs) != len(b.addrs) {
		return false
	}
	for i := range a.addrs {
		if a.addrs[i] != b.addrs[i] || a.kinds[i] != b.kinds[i] ||
			a.probeTTL[i] != b.probeTTL[i] || a.respTTL[i] != b.respTTL[i] {
			return false
		}
	}
	return true
}

// TestConcurrentTracesMatchSequential traces every destination of the
// shipped topology (per-packet diamonds, drops and flip schedules included)
// once sequentially, then again from N concurrent goroutines (distinct
// destinations each), and asserts the measured routes are identical. Run
// under -race this is also the engine's data-race gate.
func TestConcurrentTracesMatchSequential(t *testing.T) {
	cfg := topo.DefaultGenConfig()
	cfg.Destinations = 96
	sc := topo.Generate(cfg)
	sc.RoundStart(0)
	tp := netsim.NewTransport(sc.Net)

	opts := tracer.Options{MinTTL: 2, MaxTTL: 39}
	want := make([]traceSummary, len(sc.Dests))
	for i, d := range sc.Dests {
		rt, err := tracer.NewParisUDP(tp, opts).Trace(d)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = summarize(rt)
	}

	const workers = 16
	got := make([]traceSummary, len(sc.Dests))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sc.Dests); i += workers {
				rt, err := tracer.NewParisUDP(tp, opts).Trace(sc.Dests[i])
				if err != nil {
					errs[w] = err
					return
				}
				got[i] = summarize(rt)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		if !want[i].equal(got[i]) {
			t.Errorf("dest %v: concurrent trace diverged from sequential\nseq: %v\ncon: %v",
				sc.Dests[i], want[i].addrs, got[i].addrs)
		}
	}
}

// TestConcurrentExchangesWithRoutingDynamics hammers one network from many
// goroutines while a ninth publishes round after round of routing changes
// (flip schedules, flaps, transient loops), to give -race a mutation-heavy
// schedule. Results are not checked beyond liveness: every exchange must
// terminate.
func TestConcurrentExchangesWithRoutingDynamics(t *testing.T) {
	cfg := topo.DefaultGenConfig()
	cfg.Destinations = 60
	cfg.PFlipPod = 0.5
	cfg.FlipPerProbe = 0.05 // flip aggressively mid-trace
	sc := topo.Generate(cfg)
	tp := netsim.NewTransport(sc.Net)

	stop := make(chan struct{})
	var rounds sync.WaitGroup
	rounds.Add(1)
	go func() {
		defer rounds.Done()
		for r := 0; ; r++ {
			select {
			case <-stop:
				return
			default:
				sc.RoundStart(r)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := w; i < len(sc.Dests); i += 8 {
					if _, err := tracer.NewClassicUDP(tp, tracer.Options{
						SrcPort: uint16(32768 + w*100 + i), MaxTTL: 39,
					}).Trace(sc.Dests[i]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rounds.Wait()
}
