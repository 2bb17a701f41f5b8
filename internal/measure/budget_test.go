package measure

import (
	"io"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ckpt"
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

// TestPairAllocBudget is the study's steady-state budget: once a worker's
// buffers, route pool and interned routes are warm, a pair — two traces, the
// fold, the recycling, netsim's own forwarding included — stays within three
// allocations. The tracer's share is zero (the tracer package's
// TestTraceSteadyStateAllocs); what remains is a classic route seen for the
// first time, which the accumulator copies and analyzes once — forty rounds
// in, that is well under one allocation per pair here.
func TestPairAllocBudget(t *testing.T) {
	const dests = 100
	w := newSteadyWorker(t, dests)
	w.rounds(t, 40)
	perRound := testing.AllocsPerRun(4, func() { w.rounds(t, 1) })
	if perPair := perRound / dests; perPair > pairAllocBudget {
		t.Errorf("%.2f allocations per steady-state pair, budget %d", perPair, pairAllocBudget)
	} else {
		t.Logf("%.2f allocations per steady-state pair", perPair)
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

// TestInternedRoutesExactSize pins what an accumulator retains per interned
// route: one cell per hop in an array at exact length, whether the route was
// folded live (traced into a hint-sized or recycled, possibly longer, hop
// slice) or restored from a checkpoint — so a resumed campaign holds exactly
// the hop cells the uninterrupted one does.
func TestInternedRoutesExactSize(t *testing.T) {
	w := newSteadyWorker(t, 80)
	w.rounds(t, 5)
	live, exact := hopSlots(w.acc)
	if !exact {
		t.Error("a live accumulator interned a route with spare capacity")
	}
	if live == 0 {
		t.Fatal("nothing interned")
	}

	path := filepath.Join(t.TempDir(), "exact.ck")
	ck, err := w.c.checkpoint(w.round, []*Accumulator{w.acc})
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
	if err := ckpt.Encode(io.Discard, ckpt.KindCampaign, checkpointVersion, ck.Encode); err != nil {
		tb.Fatal(err)
	}
	return st
}
