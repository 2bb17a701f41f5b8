//go:build !race

package measure

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/simtest"
)

// pairAllocBudget is TestPairAllocBudget's ceiling, allocations per pair.
const pairAllocBudget = 3

// destHeapBudget is TestAccumulatorHeapPerDest's ceiling, bytes retained per
// destination: the reading is 2.5 KB, its interned routes about a third of it
// (8-byte hop cells under 32-byte memo headers). Routes interned as cloned
// tracer.Routes (72-byte hops) and five maps per destination read 11.4 KB;
// diamond graphs kept as a map per address cost 23 KB more, and a cache of
// each (classic, Paris) pair's causes 0.26 KB.
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
	gen := simtest.Default(300)
	w := newSteadyWorkerOn(t, gen)
	w.rounds(t, 12)
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

// TestReadAllocs pins what a read of an accumulator costs when nothing was
// folded since the last one: the sorted views and diamond tallies are
// current, so Merge and State allocate a constant number of objects, not
// one or more per destination. It lives on the !race side of the budget
// split, like TestAccumulatorHeapPerDest.
func TestReadAllocs(t *testing.T) {
	reads := func(dests int) (merge, state float64) {
		w := newSteadyWorker(t, dests)
		w.rounds(t, 5)
		Merge(5, dests, w.acc)
		mustState(t, w.acc)
		merge = testing.AllocsPerRun(5, func() { Merge(5, dests, w.acc) })
		state = testing.AllocsPerRun(5, func() { mustState(t, w.acc) })
		return merge, state
	}
	m100, s100 := reads(100)
	m400, s400 := reads(400)
	t.Logf("Merge: %.0f allocations at 100 destinations, %.0f at 400; State: %.0f, %.0f", m100, m400, s100, s400)
	if m400 > m100+2 {
		t.Errorf("Merge allocates %.0f objects at 400 destinations, %.0f at 100", m400, m100)
	}
	if s400 > s100+2 {
		t.Errorf("State allocates %.0f objects at 400 destinations, %.0f at 100", s400, s100)
	}
}

// TestSaveAllocatesNoBody pins that a checkpoint never holds its body twice:
// State and the body's streamed write (Checkpoint.Encode, framed, to
// io.Discard) of a steady accumulator, twelve rounds in and one folded since
// its last read, allocate under half the body's encoded size. State encodes the head and
// notes the hop cells, which the write streams through the frame's buffer;
// a write that built the body in a buffer of its own allocates more than
// the body. It lives on the !race side of the budget split, like
// TestAccumulatorHeapPerDest.
func TestSaveAllocatesNoBody(t *testing.T) {
	w := newSteadyWorker(t, 1000)
	w.rounds(t, 11)
	encodeState(t, w.acc)
	w.rounds(t, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := encodeState(t, w.acc)
	runtime.ReadMemStats(&after)
	got, size := after.TotalAlloc-before.TotalAlloc, st.size()
	t.Logf("State and its write allocated %d bytes for a %d-byte body", got, size)
	if got >= uint64(size/2) {
		t.Errorf("State and its write allocated %d bytes, budget half the %d-byte body", got, size)
	}
}
