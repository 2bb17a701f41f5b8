package daemon

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/costs"
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

// TestCosts reads daemon's rows of testdata/costs.txt, over daemons whose
// destinations are all due every round.
//
// tick-allocs is a warmed Tick's allocations per dispatched pair, at 200
// destinations.
//
// The rest are read at 500 destinations six ticks in. stats-allocs and
// stats-bytes are one GET /stats through Handler (the merge under the
// daemon's lock and the JSON encoding of its Stats, whose stats-addresses
// addresses encode one at a time); ckpt-locked-allocs and ckpt-locked-bytes
// are checkpointLocked, what a checkpoint allocates under the daemon's lock;
// ckpt-file-bytes is the file that checkpoint saves.
func TestCosts(t *testing.T) {
	rows := costs.Rows{}
	const dests = 200
	d := mustNew(t, poolConfig(t, dests))
	defer d.Stop()
	tick(d, 3)
	rows.Allocs("daemon/tick-allocs", 5*dests, d.Tick, func() { tick(d, 5) })

	d = mustNew(t, poolConfig(t, 500))
	defer d.Stop()
	tick(d, 6)
	h, req := d.Handler(), httptest.NewRequest(http.MethodGet, "/stats", nil)
	warm, rec := httptest.NewRecorder(), httptest.NewRecorder()
	rows["daemon/stats-bytes"] = rows.Allocs("daemon/stats-allocs", 1, func() {
		h.ServeHTTP(warm, req)
		rec.Body.Grow(warm.Body.Len()) // the recorder's buffer is not the handler's cost
	}, func() { h.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK || rec.Body.Len() != warm.Body.Len() {
		t.Errorf("/stats: status %d, %d bytes; the warm-up read %d", rec.Code, rec.Body.Len(), warm.Body.Len())
	}
	rows["daemon/stats-addresses"] = float64(len(d.Snapshot().AllAddresses))

	var ck *Checkpoint
	var err error
	d.mu.Lock()
	rows["daemon/ckpt-locked-bytes"] = rows.Allocs("daemon/ckpt-locked-allocs", 1, nil, func() { ck, err = d.checkpointLocked() })
	d.mu.Unlock()
	path := filepath.Join(t.TempDir(), "d.ck")
	if err == nil {
		err = ck.Save(path)
	}
	if err != nil {
		t.Fatal(err)
	}
	rows["daemon/ckpt-file-bytes"] = float64(len(readFile(t, path)))
	rows.Check(t)
}
