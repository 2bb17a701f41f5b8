package daemon

import (
	"sync/atomic"
	"testing"

	"repro/internal/simtest"
	"repro/internal/tracer"
)

// The pool's per-pair cost is what a campaign worker pays — trace, fold,
// recycle — and nothing more: no goroutine, channel or timer per job.

// poolConfig is a daemon over n static destinations, every one due every
// round and all of them admitted.
func poolConfig(t *testing.T, n int) Config {
	t.Helper()
	sc := freeTopo(t, n, 5, 0)
	cfg := testConfig(sc)
	cfg.Period = 1
	cfg.QueueCap = n
	return cfg
}

// goroutineWatch records the most goroutines of this package alive at every
// 32nd exchange, the exchanging worker aside (simtest.Goroutines leaves out
// its caller). Counting takes a stack dump of the whole process, which stops
// it; at every exchange that would take a Tick from milliseconds to most of
// a second, and goroutines that grew with the destinations would be alive
// across thousands of exchanges anyway.
type goroutineWatch struct {
	tracer.Transport
	calls, peak atomic.Int64
}

func (w *goroutineWatch) note() {
	if w.calls.Add(1)%32 != 1 {
		return
	}
	n := int64(len(simtest.Goroutines(daemonPkg)))
	for {
		p := w.peak.Load()
		if n <= p || w.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (w *goroutineWatch) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	w.note()
	w.Transport.ExchangeBatch(probes, out)
}

// TestTickGoroutinesConstant: the goroutines alive during a Tick do not grow
// with the destinations it dispatches.
func TestTickGoroutinesConstant(t *testing.T) {
	const dests = 200
	cfg := poolConfig(t, dests)
	w := &goroutineWatch{Transport: cfg.Transport}
	cfg.Transport = w
	d := mustNew(t, cfg)
	defer d.Stop()
	tick(d, 3)
	// The test goroutine, which the watch counts blocked in Tick, stands
	// in for the one worker it leaves out.
	base := int64(len(simtest.Goroutines(daemonPkg)))
	w.peak.Store(0)
	d.Tick()
	if s := d.Snapshot(); s.Robust.Probed != 4*dests {
		t.Fatalf("probed %d, want %d", s.Robust.Probed, 4*dests)
	}
	peak := w.peak.Load()
	if peak > base+2 {
		t.Fatalf("%d goroutines during a Tick over %d destinations, %d between ticks", peak, dests, base)
	}
	t.Logf("%d goroutines during a Tick, %d between ticks", peak, base)
}

// TestTickAllocs pins a warmed Tick's allocations per dispatched pair.
func TestTickAllocs(t *testing.T) {
	if simtest.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const dests = 200
	d := mustNew(t, poolConfig(t, dests))
	defer d.Stop()
	tick(d, 3)
	perPair := testing.AllocsPerRun(5, d.Tick) / dests
	if perPair > 3 {
		t.Fatalf("%.2f allocations per pair, want at most 3", perPair)
	}
	t.Logf("%.2f allocations per pair", perPair)
}
