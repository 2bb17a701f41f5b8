//go:build !race

package measure

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/topo"
)

// pairAllocBudget is TestPairAllocBudget's ceiling, allocations per pair.
const pairAllocBudget = 3

// destHeapBudget is TestAccumulatorHeapPerDest's ceiling, bytes retained per
// destination: the reading is 2.7 KB, its interned routes about a third of it
// (8-byte hop cells under 32-byte memo headers). Routes interned as cloned
// tracer.Routes (72-byte hops) and five maps per destination read 11.4 KB;
// diamond graphs kept as a map per address cost 23 KB more.
const destHeapBudget = 5000

// heapLive is what the heap holds once everything unreachable is gone: two
// collections, because a sync.Pool gives up its contents only over two.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestAccumulatorHeapPerDest pins what an always-on run retains: the live
// heap an accumulator holds per destination after a dozen rounds of the
// topology the binaries run (flips on: per-packet balancers, every
// rare-cause pod), measured as the heap with the accumulator alive minus the
// heap once it is dropped. It lives on the !race side of the budget split:
// the race detector's shadow allocations are not the program's.
func TestAccumulatorHeapPerDest(t *testing.T) {
	gen := topo.DefaultGenConfig()
	gen.Destinations = 300
	w := newSteadyWorkerOn(t, gen)
	w.rounds(t, 12)
	w.ring.flush()
	acc, dests := w.acc, len(w.acc.dests)
	w = nil
	with := heapLive()
	runtime.KeepAlive(acc)
	acc = nil
	without := heapLive()
	perDest := (int64(with) - int64(without)) / int64(dests)
	t.Logf("%d bytes retained per destination (%d destinations)", perDest, dests)
	if perDest > destHeapBudget {
		t.Errorf("%d bytes retained per destination, budget %d", perDest, destHeapBudget)
	}
}
