package measure

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/costs"
	"repro/internal/netsim"
	"repro/internal/simtest"
	"repro/internal/topo"
)

// steadyWorker is one campaign worker driven by hand, the way runRound
// drives it — measureDest, Fold, Recycle — so a test can stop between pairs:
// a batched, streamed, one-worker campaign over the default topology.
type steadyWorker struct {
	c     *Campaign
	sc    *topo.Scenario
	acc   *Accumulator
	round int
}

func newSteadyWorker(tb testing.TB, dests int) *steadyWorker {
	tb.Helper()
	return newSteadyWorkerOn(tb, simtest.Default(dests))
}

// newSteadyWorkerOn is newSteadyWorker over any generated topology.
func newSteadyWorkerOn(tb testing.TB, gen topo.GenConfig) *steadyWorker {
	tb.Helper()
	sc := topo.Generate(gen)
	c := newCampaign(tb, netsim.NewTransport(sc.Net), Config{
		Dests: sc.Dests, Workers: 1, PortSeed: 42, Batch: true, Stream: true,
	})
	return &steadyWorker{c: c, sc: sc, acc: NewAccumulator()}
}

// pair measures and folds the next pair, opening a new round when the list
// wraps.
func (w *steadyWorker) pair(tb testing.TB, i int) {
	idx := i % len(w.sc.Dests)
	if idx == 0 {
		w.sc.RoundStart(w.round)
		w.round++
	}
	p, err := w.c.measureDest(0, w.round-1, w.sc.Dests[idx], &w.c.runs[idx])
	if err != nil {
		tb.Fatal(err)
	}
	w.acc.Fold(&p)
	w.c.probers[0].Recycle(&p)
}

// rounds runs n whole rounds.
func (w *steadyWorker) rounds(tb testing.TB, n int) {
	for i := 0; i < n*len(w.sc.Dests); i++ {
		w.pair(tb, i)
	}
}

// hopSlots counts the hop cells an accumulator's destinations hold on to
// and reports whether every cell array among them is at its exact length.
func hopSlots(a *Accumulator) (slots int, exact bool) {
	exact = true
	for _, ds := range a.dests {
		slots += cap(ds.cells)
		exact = exact && cap(ds.cells) == len(ds.cells)
	}
	return slots, exact
}

// TestAccumulatorHeapPerDest reads the row measure/heap-per-dest of
// testdata/costs.txt: what an always-on run retains, the live heap an
// accumulator holds per destination after a dozen rounds of the topology the
// binaries run (flips on: per-packet balancers, every rare-cause pod). About
// a third of it is interned routes (8-byte hop cells under 32-byte memo
// headers). Routes interned as cloned tracer.Routes (72-byte hops) and five
// maps per destination read 11.4 KB; diamond graphs kept as a map per
// address cost 23 KB more, and a cache of each (classic, Paris) pair's
// causes 0.26 KB.
func TestAccumulatorHeapPerDest(t *testing.T) {
	rows := costs.Rows{}
	gen := simtest.Default(300)
	rows.Heap("measure/heap-per-dest", gen.Destinations, func(mark func()) any {
		mark()
		w := newSteadyWorkerOn(t, gen)
		w.rounds(t, 12)
		return w.acc
	})
	rows.Check(t)
}

// TestPairAllocBudget reads the row measure/pair-allocs of
// testdata/costs.txt, the study's steady state: once a worker's buffers,
// route pool and interned routes are warm, a pair (two traces, the fold, the
// recycling, netsim's own forwarding included) allocates only for a classic
// route seen for the first time, which the accumulator copies and analyzes
// once; the tracer's share is zero (tracer/trace-allocs). Under the race
// detector sync.Pool drops a quarter of what it is handed back and netsim
// keeps its per-batch state in pools, so netsim's share rises from none to
// about six; the race ceiling still catches a per-trace allocation coming
// back (ten a trace before this budget existed).
func TestPairAllocBudget(t *testing.T) {
	rows := costs.Rows{}
	w := newSteadyWorker(t, 100)
	w.rounds(t, 40)
	rows.Allocs("measure/pair-allocs", 4*100, func() { w.rounds(t, 1) }, func() { w.rounds(t, 4) })
	rows.Check(t)
}

// TestReadAllocs reads the rows measure/merge-allocs-N and
// measure/state-allocs-N of testdata/costs.txt: a read of an accumulator
// with nothing folded since the last, at N destinations. The sorted views
// and diamond tallies are current, so Merge and State allocate as much at
// 400 destinations as at 100.
func TestReadAllocs(t *testing.T) {
	rows := costs.Rows{}
	for _, dests := range []int{100, 400} {
		w := newSteadyWorker(t, dests)
		w.rounds(t, 5)
		merge, state := func() { Merge(5, dests, w.acc) }, func() { mustState(t, w.acc) }
		rows.Allocs(fmt.Sprintf("measure/merge-allocs-%d", dests), 1, merge, merge)
		rows.Allocs(fmt.Sprintf("measure/state-allocs-%d", dests), 1, state, state)
	}
	rows.Check(t)
}

// TestSaveAllocatesNoBody reads the rows measure/save-allocs and
// measure/save-alloc-share of testdata/costs.txt: State and the body's
// streamed write (Checkpoint.Encode, framed, to io.Discard) of a steady
// accumulator, twelve rounds in and one folded since its last read, its
// allocations and the bytes allocated as a share of the body's
// measure/save-body-bytes. State encodes the head and notes the hop cells,
// which the write streams through the frame's buffer; a write that built the
// body in a buffer of its own would allocate more than the body.
func TestSaveAllocatesNoBody(t *testing.T) {
	rows := costs.Rows{}
	w := newSteadyWorker(t, 1000)
	w.rounds(t, 11)
	var st AccState
	saved := rows.Allocs("measure/save-allocs", 1, func() {
		encodeState(t, w.acc)
		w.rounds(t, 1)
	}, func() { st = encodeState(t, w.acc) })
	rows["measure/save-body-bytes"] = float64(st.size())
	rows["measure/save-alloc-share"] = saved / float64(st.size())
	rows.Check(t)
}

// TestInternedRoutesExactSize reads the row measure/interned-hop-slots of
// testdata/costs.txt, what an accumulator retains for its interned routes:
// one cell per hop in an array at exact length, whether the route was folded
// live (traced into a hint-sized or recycled, possibly longer, hop slice) or
// restored from a checkpoint, so a resumed campaign holds exactly the hop
// cells the uninterrupted one does.
func TestInternedRoutesExactSize(t *testing.T) {
	rows := costs.Rows{}
	w := newSteadyWorker(t, 80)
	w.rounds(t, 5)
	live, exact := hopSlots(w.acc)
	if !exact {
		t.Error("a live accumulator interned a route with spare capacity")
	}
	if live == 0 {
		t.Fatal("nothing interned")
	}
	rows["measure/interned-hop-slots"] = float64(live)
	path := filepath.Join(t.TempDir(), "exact.ck")
	ck, err := NewCheckpoint(w.c.digest, w.round, w.c.runs, []*Accumulator{w.acc}, w.c.cfg.TransportState)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreAccumulator(mustLoad(t, path).Workers[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, exact := hopSlots(restored); got != live || !exact {
		t.Errorf("restored accumulator retains %d hop slots (exact=%v), the live one %d", got, exact, live)
	}
	rows.Check(t)
}

// BenchmarkMeasurePairSteady is the study's unit of work at steady state:
// one warmed worker over netsim, one pair per iteration (ns, allocations and
// bytes per pair). flips=on is the default topology — per-packet balancers,
// every rare-cause pod and the flip schedules — which is what the binaries
// and the repository benchmark run; flips=off is the same with -flips=false.
func BenchmarkMeasurePairSteady(b *testing.B) {
	flipsOff := simtest.Default(500)
	flipsOff.FlipPerProbe = 0
	for _, c := range []struct {
		name string
		gen  topo.GenConfig
	}{
		{"flips=off", flipsOff},
		{"flips=on", simtest.Default(500)},
	} {
		b.Run(c.name, func(b *testing.B) {
			w := newSteadyWorkerOn(b, c.gen)
			w.rounds(b, 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.pair(b, i)
			}
		})
	}
}

// BenchmarkFoldFirstSight is the fold's other regime: a pair whose
// destination and both routes the accumulator has never seen — the
// destination's state is made, both routes are copied, analyzed (loops,
// cycles, tallies) and merged into the diamond graphs, and the pair is
// classified. One round of the flips-on topology, folded into a fresh
// accumulator each time it wraps.
func BenchmarkFoldFirstSight(b *testing.B) {
	gen := simtest.Default(500)
	w := newSteadyWorkerOn(b, gen)
	w.sc.RoundStart(0)
	pairs := make([]Pair, len(w.sc.Dests))
	for i, d := range w.sc.Dests {
		p, err := w.c.measureDest(0, 0, d, &w.c.runs[i])
		if err != nil {
			b.Fatal(err)
		}
		pairs[i] = p
	}
	var acc *Accumulator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(pairs)
		if k == 0 {
			acc = NewAccumulator()
		}
		acc.Fold(&pairs[k])
	}
}

// benchReads warms a worker over 5,000 destinations of the flips-on topology
// and then, per iteration, folds one more round off the clock and times
// read: what a daemon's /stats request (Merge) or checkpoint (State) pays
// under its lock after a round of steady-state folds.
func benchReads(b *testing.B, read func(w *steadyWorker)) {
	w := newSteadyWorker(b, 5000)
	w.rounds(b, 5)
	read(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.rounds(b, 1)
		b.StartTimer()
		read(w)
	}
}

// The reads' results, kept so that the compiler cannot drop the calls.
var (
	mergeSink *Stats
	stateSink AccState
)

// BenchmarkMergeSteady is one Merge of a warmed 5,000-destination
// accumulator, one round folded since the last.
func BenchmarkMergeSteady(b *testing.B) {
	benchReads(b, func(w *steadyWorker) { mergeSink = Merge(w.round, len(w.sc.Dests), w.acc) })
}

// BenchmarkStateSteady is one checkpoint body of a warmed 5,000-destination
// accumulator, one round folded since the last: State and the body's
// streamed write, which together read the accumulator and encode the body.
// locked-ns/op is State alone, what a daemon's checkpoint holds its lock
// for.
func BenchmarkStateSteady(b *testing.B) {
	var locked time.Duration
	calls := 0
	benchReads(b, func(w *steadyWorker) {
		start := time.Now()
		st, err := w.acc.State()
		locked += time.Since(start)
		calls++
		if err != nil {
			b.Fatal(err)
		}
		stateSink = encoded(b, st)
	})
	b.ReportMetric(float64(locked.Nanoseconds())/float64(calls), "locked-ns/op")
}

// encodeState is State of a and its body's streamed write.
func encodeState(tb testing.TB, a *Accumulator) AccState {
	tb.Helper()
	st, err := a.State()
	if err != nil {
		tb.Fatal(err)
	}
	return encoded(tb, st)
}

// encoded writes st as Checkpoint.Encode does, framed as a one-worker
// campaign checkpoint, to io.Discard, and returns it.
func encoded(tb testing.TB, st AccState) AccState {
	tb.Helper()
	ck := &Checkpoint{Workers: []AccState{st}}
	if err := ckpt.Encode(io.Discard, ckpt.KindCampaign, CheckpointVersion, ck.Encode); err != nil {
		tb.Fatal(err)
	}
	return st
}
