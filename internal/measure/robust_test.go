package measure

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtest"
	"repro/internal/topo"
)

// faultyCampaign builds a campaign over a fresh default scenario with the
// given fault plan afflicted on its transport.
func faultyCampaign(t *testing.T, dests, rounds int, plan netsim.FaultPlan, cfg Config) (*Campaign, *topo.Scenario, *netsim.FaultTransport) {
	t.Helper()
	sc := topo.Generate(simtest.Default(dests))
	ft := netsim.WrapFaults(netsim.NewTransport(sc.Net), plan)
	cfg.Dests = sc.Dests
	cfg.Rounds = rounds
	cfg.RoundStart = sc.RoundStart
	cfg.PortSeed = 42
	return newCampaign(t, ft, cfg), sc, ft
}

// TestCampaignQuarantinesBlackholedDests pins the default error policy's
// accounting exactly: a blackholed destination fails quarantineAfter rounds
// (each pair measured once and charged once) and is then skipped for the
// rest of the campaign, while every healthy destination is measured in
// full.
func TestCampaignQuarantinesBlackholedDests(t *testing.T) {
	const dests, rounds = 60, 6
	plan := netsim.FaultPlan{Seed: 11, BlackholeEvery: 5}
	camp, sc, ft := faultyCampaign(t, dests, rounds, plan, Config{
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

	// Each failed pair was tried once: its Paris trace's first probe met
	// the blackhole, one injected error per failed pair.
	if got := ft.InjectedErrors(); got != wantFailed {
		t.Errorf("injected errors = %d, want %d", got, wantFailed)
	}
	if s.Loops.Instances == 0 || s.Diamonds.Total == 0 {
		t.Error("faulty campaign produced degenerate anomaly statistics")
	}
}

// TestCampaignFailFastAborts preserves the historical semantics: with
// FailFast the first trace error fails the whole campaign.
func TestCampaignFailFastAborts(t *testing.T) {
	camp, _, _ := faultyCampaign(t, 20, 3, netsim.FaultPlan{Seed: 1, BlackholeEvery: 1}, Config{
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

	ff, _, _ := faultyCampaign(t, 20, 2, plan, Config{Workers: 8, FailFast: true})
	if _, err := ff.Run(); err == nil {
		t.Fatal("expected FailFast error")
	}

	deg, _, _ := faultyCampaign(t, 20, quarantineAfter+1, plan, Config{Workers: 8, Stream: true})
	mustRun(t, deg)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cc, _, _ := faultyCampaign(t, 20, 2, plan, Config{Workers: 8, Stream: true})
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
