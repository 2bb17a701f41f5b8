package simtest_test

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"repro/internal/measure"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// wire is a transport that passes batches on and counts every exchange it
// saw: the probe's bytes, the response's and whether there was one. Workers
// share it, so its tally takes a lock.
type wire struct {
	tracer.Transport
	mu    sync.Mutex
	count map[string]int
}

func (w *wire) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	w.Transport.ExchangeBatch(probes, out)
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, p := range probes {
		ok := "*"
		if out[i].OK {
			ok = "ok"
		}
		w.count[string(p)+"|"+string(out[i].Resp)+"|"+ok]++
	}
}

// wireOf runs a campaign over a fresh copy of gen's topology and returns the
// multiset of exchanges it sent.
func wireOf(t *testing.T, gen topo.GenConfig, workers int, batch bool) map[string]int {
	s := topo.Generate(gen)
	w := &wire{Transport: s.Transport(), count: make(map[string]int)}
	camp, err := measure.NewCampaign(w, measure.Config{
		Dests: s.Dests, Rounds: 3, Workers: workers, RoundStart: s.RoundStart,
		PortSeed: portSeed, Batch: batch, Stream: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	return w.count
}

// TestWireIndependentOfWorkers holds netsim to the rule that the wire is a
// function of the seed: a campaign sends the same probes and gets the same
// responses, byte for byte (IP IDs and checksums included) and as many
// times each, at one worker and at 32, batched or not, statically and
// under dynamics.
func TestWireIndependentOfWorkers(t *testing.T) {
	for name, gen := range map[string]topo.GenConfig{
		"default":  simtest.Default(200),
		"dynamics": simtest.Dynamics(200),
	} {
		for _, batch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batch=%v", name, batch), func(t *testing.T) {
				t.Parallel()
				one, many := wireOf(t, gen, 1, batch), wireOf(t, gen, 32, batch)
				if maps.Equal(one, many) {
					return
				}
				differ := 0
				for k, n := range one {
					if many[k] != n {
						differ++
					}
				}
				for k := range many {
					if _, ok := one[k]; !ok {
						differ++
					}
				}
				t.Errorf("%d of %d distinct exchanges at one worker are sent or answered a different number of times at 32", differ, len(one))
			})
		}
	}
}
