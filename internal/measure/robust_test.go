package measure

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtest"
	"repro/internal/topo"
)

// faultyCampaign builds a streaming campaign over a fresh default
// scenario with the given fault plan afflicted on its transport. The
// returned sleeps slice records every backoff wait (no real sleeping).
func faultyCampaign(t *testing.T, dests, rounds int, plan netsim.FaultPlan, cfg Config) (*Campaign, *topo.Scenario, *netsim.FaultTransport, *[]time.Duration) {
	t.Helper()
	sc := topo.Generate(simtest.Default(dests))
	ft := netsim.WrapFaults(netsim.NewTransport(sc.Net), plan)
	sleeps := new([]time.Duration)
	cfg.Dests = sc.Dests
	cfg.Rounds = rounds
	cfg.RoundStart = sc.RoundStart
	cfg.PortSeed = 42
	// Every worker backs off through this one seam.
	var mu sync.Mutex
	cfg.Sleep = func(d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		*sleeps = append(*sleeps, d)
	}
	camp := newCampaign(t, ft, cfg)
	return camp, sc, ft, sleeps
}

// TestCampaignQuarantinesBlackholedDests pins the default error policy's
// accounting exactly: a blackholed destination fails quarantineAfter rounds
// (each after the full retry budget) and is then skipped for the rest of
// the campaign, while every healthy destination is measured in full.
func TestCampaignQuarantinesBlackholedDests(t *testing.T) {
	const dests, rounds = 60, 6
	plan := netsim.FaultPlan{Seed: 11, BlackholeEvery: 5}
	camp, sc, ft, sleeps := faultyCampaign(t, dests, rounds, plan, Config{
		Workers: 4,
		Stream:  true,
	})
	blackholed := 0
	for _, d := range sc.Dests {
		if plan.ScheduleFor(d).Blackhole {
			blackholed++
		}
	}
	if blackholed < 2 || blackholed == len(sc.Dests) {
		t.Fatalf("degenerate plan: %d of %d destinations blackholed", blackholed, len(sc.Dests))
	}

	res := mustRun(t, camp)
	s := res.Stats

	wantFailed := blackholed * quarantineAfter
	wantSkipped := blackholed * (rounds - quarantineAfter)
	wantProbed := (len(sc.Dests) - blackholed) * rounds
	if s.Robust.Failed != wantFailed {
		t.Errorf("Failed = %d, want %d", s.Robust.Failed, wantFailed)
	}
	if s.Robust.Skipped != wantSkipped {
		t.Errorf("Skipped = %d, want %d", s.Robust.Skipped, wantSkipped)
	}
	if s.Robust.QuarantinedDests != blackholed {
		t.Errorf("QuarantinedDests = %d, want %d", s.Robust.QuarantinedDests, blackholed)
	}
	if s.Robust.Probed != wantProbed || s.Routes != wantProbed {
		t.Errorf("Probed = %d (Routes %d), want %d", s.Robust.Probed, s.Routes, wantProbed)
	}

	// Each failed pair burned the full retry budget: maxAttempts tries on
	// the Paris trace, so maxAttempts-1 backoff waits per failed pair and
	// one injected error per try.
	wantSleeps := wantFailed * (maxAttempts - 1)
	if len(*sleeps) != wantSleeps {
		t.Errorf("recorded %d backoff waits, want %d", len(*sleeps), wantSleeps)
	}
	if got := ft.InjectedErrors(); got != wantFailed*maxAttempts {
		t.Errorf("injected errors = %d, want %d", got, wantFailed*maxAttempts)
	}
	if s.Loops.Instances == 0 || s.Diamonds.Total == 0 {
		t.Error("faulty campaign produced degenerate anomaly statistics")
	}
}

// TestCampaignRetriesRideOutTransientWindow: a transient window shorter
// than the retry budget costs retries but loses nothing — every pair is
// eventually measured and the statistics are byte-identical to a fault-free
// campaign over the same scenario.
func TestCampaignRetriesRideOutTransientWindow(t *testing.T) {
	const (
		dests  = 48
		rounds = 3
	)
	// Every destination errors its first two exchanges; the third attempt
	// starts past the window and the whole trace runs clean.
	plan := netsim.FaultPlan{Seed: 5, TransientEvery: 1, TransientStart: 0, TransientLen: 2}
	camp, _, _, sleeps := faultyCampaign(t, dests, rounds, plan, Config{
		Workers: 4,
		Stream:  true,
	})
	res := mustRun(t, camp)
	s := res.Stats
	if s.Robust.Failed != 0 || s.Robust.Skipped != 0 || s.Robust.QuarantinedDests != 0 {
		t.Fatalf("retries did not ride out the window: %+v", s.Robust)
	}
	if s.Routes != dests*rounds {
		t.Fatalf("Routes = %d, want %d", s.Routes, dests*rounds)
	}
	// Two retries per destination, all in round 0's first trace.
	if want := dests * 2; len(*sleeps) != want {
		t.Fatalf("recorded %d backoff waits, want %d", len(*sleeps), want)
	}

	// The dropped-then-retried probes never reached the simulated network,
	// so the statistics must match a fault-free campaign exactly.
	clean := topo.Generate(simtest.Default(dests))
	cres := mustRun(t, newCampaign(t, netsim.NewTransport(clean.Net), Config{
		Dests: clean.Dests, Rounds: rounds, Workers: 4,
		RoundStart: clean.RoundStart, PortSeed: 42, Stream: true,
	}))
	if !reflect.DeepEqual(s, cres.Stats) {
		t.Errorf("faulted-but-retried stats differ from fault-free stats:\nfaulted: %+v\nclean:   %+v", s, cres.Stats)
	}
}

// TestCampaignFailFastAborts preserves the historical semantics: with
// FailFast the first trace error fails the whole campaign and carries the
// transport taxonomy.
func TestCampaignFailFastAborts(t *testing.T) {
	camp, _, _, sleeps := faultyCampaign(t, 20, 3, netsim.FaultPlan{Seed: 1, BlackholeEvery: 1}, Config{
		Workers:  4,
		FailFast: true,
	})
	res, err := camp.Run()
	if err == nil {
		t.Fatal("FailFast campaign over a blackholed network returned no error")
	}
	if res != nil {
		t.Fatalf("failed campaign returned results: %+v", res)
	}
	if len(*sleeps) != 0 {
		t.Fatalf("FailFast retried (%d backoff waits)", len(*sleeps))
	}
}

// TestCampaignContextCancel: canceling the context stops the campaign at
// the interrupted round and surfaces ctx.Err alongside the partial results.
func TestCampaignContextCancel(t *testing.T) {
	const cancelAt = 2
	sc := topo.Generate(simtest.Default(30))
	ctx, cancel := context.WithCancel(context.Background())
	camp := newCampaign(t, netsim.NewTransport(sc.Net), Config{
		Dests:   sc.Dests,
		Rounds:  6,
		Workers: 4,
		RoundStart: func(r int) {
			if r == cancelAt {
				cancel()
			}
			sc.RoundStart(r)
		},
		PortSeed: 42,
	})
	res, err := camp.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Rounds) != cancelAt {
		t.Fatalf("canceled campaign retained %d complete rounds, want %d", len(res.Rounds), cancelAt)
	}
	if res.Stats == nil || res.Stats.Routes != cancelAt*len(sc.Dests) {
		t.Fatalf("canceled campaign's advisory Stats %+v, want the %d pairs of its complete rounds", res.Stats, cancelAt*len(sc.Dests))
	}
}

// measurePkg is this package's import path, which simtest.Goroutines counts
// goroutines by.
const measurePkg = "repro/internal/measure"

// TestRunRoundLeaksNoGoroutines guards the worker-error paths in both
// policies: after a FailFast abort, a degraded completion, and a canceled
// run, every worker goroutine must have exited.
func TestRunRoundLeaksNoGoroutines(t *testing.T) {
	base := simtest.Goroutines(measurePkg)
	plan := netsim.FaultPlan{Seed: 1, BlackholeEvery: 1}

	ff, _, _, _ := faultyCampaign(t, 20, 2, plan, Config{Workers: 8, FailFast: true})
	if _, err := ff.Run(); err == nil {
		t.Fatal("expected FailFast error")
	}

	deg, _, _, _ := faultyCampaign(t, 20, quarantineAfter+1, plan, Config{Workers: 8, Stream: true})
	mustRun(t, deg)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cc, _, _, _ := faultyCampaign(t, 20, 2, plan, Config{Workers: 8, Stream: true})
	if _, err := cc.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v", err)
	}

	// Workers exit through wg.Wait before Run returns, so any goroutine of
	// this package left is a leak. The three runs above launched 24
	// workers; a joined one may still be on its way out, so allow
	// scheduler lag before declaring a leak.
	for deadline := time.Now().Add(2 * time.Second); ; {
		n := simtest.NewGoroutines(measurePkg, base, 0)
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines of this package leaked", n)
		}
	}
}

// TestBackoffSchedule pins the retry delay computation: deterministic,
// exponential, jittered within [0.5, 1.5), capped.
func TestBackoffSchedule(t *testing.T) {
	sc := topo.Generate(simtest.Default(4))
	camp := newCampaign(t, netsim.NewTransport(sc.Net), Config{
		Dests:    sc.Dests,
		PortSeed: 9,
	})
	d := sc.Dests[0]
	for attempt := 1; attempt <= 6; attempt++ {
		got := camp.backoff(d, 3, attempt)
		if again := camp.backoff(d, 3, attempt); again != got {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, got, again)
		}
		base := 100 * time.Millisecond << (attempt - 1)
		if base <= 0 || base > 2*time.Second {
			base = 2 * time.Second
		}
		lo := time.Duration(float64(base) * 0.5)
		hi := time.Duration(float64(base) * 1.5)
		if got < lo || got >= hi {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, got, lo, hi)
		}
	}
	if a, b := camp.backoff(sc.Dests[0], 0, 1), camp.backoff(sc.Dests[1], 0, 1); a == b {
		t.Error("jitter identical across destinations; retries would march in lockstep")
	}
}
