package measure

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/netsim"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// The poison suite pins the route-ownership rule (doc.go, "Route ownership")
// from the outside: every route is scribbled over at the moment it is given
// back to its worker, so anything that still reads a recycled route — an
// accumulator that kept a pointer instead of a copy, a ring that folds after
// recycling, a retry that reuses a half-built pair — turns into wrong
// statistics or a wrong checkpoint instead of a silent aliasing bug. The
// reference is always the campaign that never recycles: Stream=false, its
// pairs retained.

var poisonHop = tracer.Hop{
	TTL: -1, Addr: netip.AddrFrom4([4]byte{255, 255, 255, 255}), RTT: -12345,
	Kind: tracer.KindTCPSynAck, ProbeTTL: 77, RespTTL: 77, IPID: 0xdead, Mismatched: true,
}

// poisonRoute overwrites everything a route owns — every hop slot up to
// capacity, every All row — and lies about the rest. It keeps All's nil-ness:
// that is what Scratch.Recycle decides on.
func poisonRoute(rt *tracer.Route) {
	if rt == nil {
		return
	}
	rt.Hops = rt.Hops[:cap(rt.Hops)]
	for i := range rt.Hops {
		rt.Hops[i] = poisonHop
	}
	for _, row := range rt.All {
		for i := range row {
			row[i] = poisonHop
		}
	}
	rt.Dest, rt.Source, rt.Halt = poisonHop.Addr, poisonHop.Addr, tracer.HaltStars
}

// poisonCount tallies what came back: whole pairs (from the ring) and lone
// Paris routes (from a pair whose classic trace failed).
type poisonCount struct {
	mu           sync.Mutex
	pairs, lones int
}

// poison arms every worker of c; read the counts after the run.
func poison(c *Campaign) *poisonCount {
	n := new(poisonCount)
	for _, p := range c.probers {
		p.onRecycle = func(pair *Pair) {
			poisonRoute(pair.Paris)
			poisonRoute(pair.Classic)
			n.mu.Lock()
			if pair.Classic != nil {
				n.pairs++
			} else if pair.Paris != nil {
				n.lones++
			}
			n.mu.Unlock()
		}
	}
	return n
}

// gadgetsScenario is simtest's gadgets topology: per-packet diamonds,
// flips, zero-TTL pods and loopers boosted.
func gadgetsScenario(dests int) *topo.Scenario { return topo.Generate(simtest.Gadgets(dests)) }

func poisonConfig(sc *topo.Scenario, stream bool, ckPath string) Config {
	cfg := Config{
		Dests:      sc.Dests,
		Rounds:     6,
		Workers:    4,
		RoundStart: sc.RoundStart,
		PortSeed:   42,
		Batch:      true,
		Stream:     stream,
	}
	if stream {
		cfg.CheckpointPath = ckPath
	}
	return cfg
}

// referenceCheckpoint is the checkpoint file the streamed campaign c must
// have written last, rebuilt from the retained results of its Stream=false
// twin: each shard's pairs folded in list order into a fresh accumulator.
func referenceCheckpoint(t *testing.T, c *Campaign, res *Results) []byte {
	t.Helper()
	accs := make([]*Accumulator, c.cfg.Workers)
	for s := range accs {
		accs[s] = NewAccumulator()
		lo, hi := Block(s, len(accs), len(c.cfg.Dests))
		for r := range res.Rounds {
			for i := lo; i < hi; i++ {
				accs[s].Fold(&res.Rounds[r][i])
			}
		}
	}
	path := filepath.Join(t.TempDir(), "reference.ck")
	ck, err := NewCheckpoint(c.digest, len(res.Rounds), c.runs, accs, c.cfg.TransportState)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	return readFile(t, path)
}

func readFile(tb testing.TB, path string) []byte {
	tb.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// mustLoad is LoadCheckpoint for a test: a file that does not load fails it.
func mustLoad(tb testing.TB, path string) *Checkpoint {
	tb.Helper()
	ck, err := LoadCheckpoint(path)
	if err != nil {
		tb.Fatal(err)
	}
	return ck
}

// cloneRounds deep-copies retained results. Failed and Skipped pairs have
// no routes to copy.
func cloneRounds(rounds [][]Pair) [][]Pair {
	out := make([][]Pair, len(rounds))
	for r := range rounds {
		out[r] = make([]Pair, len(rounds[r]))
		for i, p := range rounds[r] {
			if p.Outcome == OutcomeOK {
				p.Paris, p.Classic = p.Paris.Clone(), p.Classic.Clone()
			}
			out[r][i] = p
		}
	}
	return out
}

// comparePoisoned runs the campaign config describes twice over fresh
// scenarios — retaining and untouched, streamed and poisoned — and
// requires the same Stats and the same final checkpoint, byte for byte. prep,
// when non-nil, adjusts each campaign before it runs. It returns the
// statistics and how many lone Paris routes the poisoned run gave back.
func comparePoisoned(t *testing.T, scenario func() *topo.Scenario, transport func(*topo.Scenario) tracer.Transport,
	config func(sc *topo.Scenario, stream bool, ckPath string) Config, prep func(*Campaign, tracer.Transport)) (*Stats, int) {
	t.Helper()
	build := func(stream bool, ckPath string) *Campaign {
		sc := scenario()
		tp := transport(sc)
		c := newCampaign(t, tp, config(sc, stream, ckPath))
		if prep != nil {
			prep(c, tp)
		}
		return c
	}

	mat := build(false, "")
	resM := mustRun(t, mat)
	kept := cloneRounds(resM.Rounds)
	want := resM.Stats
	if want.Loops.Instances == 0 || want.Diamonds.Total == 0 {
		t.Fatal("reference campaign saw no anomalies; comparison degenerate")
	}

	ckPath := filepath.Join(t.TempDir(), "poisoned.ck")
	str := build(true, ckPath)
	recycled := poison(str)
	resS := mustRun(t, str)
	if recycled.pairs != want.Routes {
		t.Errorf("%d pairs recycled, want every one of the %d measured", recycled.pairs, want.Routes)
	}
	if !reflect.DeepEqual(resS.Stats, want) {
		t.Errorf("poisoned streamed stats differ from the retaining run's:\nstream: %+v\nretain: %+v", resS.Stats, want)
	}
	if got, ref := readFile(t, ckPath), referenceCheckpoint(t, str, resM); !bytes.Equal(got, ref) {
		t.Errorf("poisoned streamed checkpoint (%d bytes) differs from the one rebuilt from retained results (%d bytes)", len(got), len(ref))
	}

	// The retaining campaign never gives a route back: its results stay
	// valid however long the campaign keeps measuring through the same
	// workers.
	poison(mat)
	mustRun(t, mat)
	if !reflect.DeepEqual(resM.Rounds, kept) {
		t.Error("retained Results.Rounds changed after the campaign measured on")
	}
	return want, recycled.lones
}

// TestPoisonedStreamMatchesAnalyze is the suite's main gate: streamed,
// batched, four workers, flips on.
func TestPoisonedStreamMatchesAnalyze(t *testing.T) {
	comparePoisoned(t, func() *topo.Scenario { return gadgetsScenario(200) }, (*topo.Scenario).Transport, poisonConfig, nil)
}

// TestPoisonedProbesPerHop3 repeats it with three probes per hop: such routes
// carry an All table whose rows alias a per-trace backing array, Scratch
// leaves them to the collector, and the accumulator's copy must be deep.
func TestPoisonedProbesPerHop3(t *testing.T) {
	comparePoisoned(t, func() *topo.Scenario { return gadgetsScenario(120) }, (*topo.Scenario).Transport, poisonConfig,
		func(c *Campaign, tp tracer.Transport) {
			for w := range c.probers {
				c.probers[w] = newProber(tp, c.cfg.PortSeed, tracer.Options{
					MinTTL: c.cfg.MinTTL, MaxTTL: maxTTL, MaxConsecutiveStars: maxStars,
					Batch: true, ProbesPerHop: 3,
				})
			}
		})
}

// classicFailer fails, once per destination, the first batch of the round-1
// classic ladder — after the pair's Paris trace has succeeded — so the pair
// folds as Failed and gives its finished Paris route back.
type classicFailer struct {
	tracer.Transport
	seed int64

	mu     sync.Mutex
	failed map[netip.Addr]bool
}

func (c *classicFailer) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	p := probes[0]
	dst := netip.AddrFrom4([4]byte(p[16:20]))
	srcPort := uint16(p[20])<<8 | uint16(p[21])
	if srcPort == 32768+portFor(c.seed, dst, 1*0x9e37+0xc1a5)%30000 && srcPort != portFor(c.seed, dst, 0x517e) {
		c.mu.Lock()
		first := !c.failed[dst]
		c.failed[dst] = true
		c.mu.Unlock()
		if first {
			for i := range probes {
				out[i] = tracer.ProbeResult{Err: errors.New("injected classic failure")}
			}
			return
		}
	}
	c.Transport.ExchangeBatch(probes, out)
}

// TestPoisonedClassicFailure covers the pair whose Paris trace succeeded and
// whose classic one failed: it folds as Failed, once, and its lone Paris
// route goes back to the worker.
func TestPoisonedClassicFailure(t *testing.T) {
	var failers []*classicFailer
	s, lones := comparePoisoned(t, func() *topo.Scenario { return gadgetsScenario(120) },
		func(sc *topo.Scenario) tracer.Transport {
			f := &classicFailer{Transport: sc.Transport(), seed: 42, failed: make(map[netip.Addr]bool)}
			failers = append(failers, f)
			return f
		},
		poisonConfig, nil)
	for _, f := range failers {
		if len(f.failed) != 120 {
			t.Errorf("classic ladder failed toward %d destinations, want all 120", len(f.failed))
		}
	}
	if lones != 120 {
		t.Errorf("%d lone Paris routes given back, want one per destination", lones)
	}
	if s.Robust.Failed != 120 || s.Robust.Skipped != 0 || s.Routes != 120*5 {
		t.Errorf("robust %+v over %d routes, want 120 failed pairs, none skipped, the other 600 measured", s.Robust, s.Routes)
	}
}

// nthBatchFailer fails one whole batch, the n-th it carries, with a fatal
// error. Up to that batch it counts the runs of consecutive batches toward
// one destination: one worker's pairs each probe one destination, unlike
// the pair before, so the pairs completed before the failure are runs - 1.
type nthBatchFailer struct {
	tracer.Transport
	n, calls int
	runs     int
	last     netip.Addr
}

func (f *nthBatchFailer) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	f.calls++
	if dst := netip.AddrFrom4([4]byte(probes[0][16:20])); f.calls <= f.n && dst != f.last {
		f.runs, f.last = f.runs+1, dst
	}
	if f.calls == f.n {
		for i := range probes {
			out[i] = tracer.ProbeResult{Err: errors.New("injected batch failure")}
		}
		return
	}
	f.Transport.ExchangeBatch(probes, out)
}

// TestPoisonedFailFastAbort aborts a FailFast campaign mid-round, then runs
// the same campaign again: every pair the aborted run completed was folded
// and given back the moment it was measured, the pair the abort cut short
// gives back no whole pair, and the rerun — through the same worker and its
// pool — must match an unpoisoned twin put through the same two runs.
func TestPoisonedFailFastAbort(t *testing.T) {
	const dests = 60
	run := func(poisoned bool) *Stats {
		sc := topo.Generate(simtest.Default(dests))
		// Two or more batches per pair: the 150th falls in round 0's second
		// half or in round 1, dozens of pairs completed either way.
		ft := &nthBatchFailer{Transport: netsim.NewTransport(sc.Net), n: 150}
		c := newCampaign(t, ft, Config{
			Dests: sc.Dests, Rounds: 4, Workers: 1, RoundStart: sc.RoundStart, PortSeed: 42,
			Batch: true, Stream: true, FailFast: true,
		})
		recycled := new(poisonCount)
		if poisoned {
			recycled = poison(c)
		}
		if _, err := c.Run(); err == nil || ft.calls != ft.n {
			t.Fatalf("first run: err %v after %d batches, want an abort on batch %d", err, ft.calls, ft.n)
		}
		if measured := ft.runs - 1; measured < dests/2 {
			t.Fatalf("%d pairs completed before the abort, want dozens", measured)
		} else if poisoned && recycled.pairs != measured {
			t.Fatalf("%d pairs given back by the aborted run, want the %d it completed", recycled.pairs, measured)
		}
		recycled.pairs = 0
		res, err := c.Run()
		if err != nil {
			t.Fatalf("rerun: %v", err)
		}
		if poisoned && recycled.pairs != 4*dests {
			t.Errorf("%d pairs recycled by the rerun, want %d", recycled.pairs, 4*dests)
		}
		return res.Stats
	}
	want, got := run(false), run(true)
	if want.Routes != 4*dests || want.Loops.Instances == 0 {
		t.Fatalf("degenerate rerun: %+v", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rerun after a FailFast abort differs under poison:\npoisoned: %+v\nclean:    %+v", got, want)
	}
}

// TestPoisonedResume kills a streamed campaign mid-study and resumes it from
// its checkpoint, poisoned before and after: the statistics are those of the
// retained, uninterrupted run, and the final checkpoint is, byte for byte,
// the one an unpoisoned kill and resume writes.
func TestPoisonedResume(t *testing.T) {
	const dests, killAt = 60, 3
	scM := topo.Generate(simtest.Default(dests))
	cfgM := checkpointConfig(scM, "")
	cfgM.Stream = false
	resM := mustRun(t, newCampaign(t, netsim.NewTransport(scM.Net), cfgM))
	want := resM.Stats

	killAndResume := func(poisoned bool) (*Stats, []byte) {
		dir := t.TempDir()
		ckPath := filepath.Join(dir, "killed.ck")
		scI := topo.Generate(simtest.Default(dests))
		cfgI := checkpointConfig(scI, ckPath)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfgI.RoundStart = func(r int) {
			if r == killAt {
				cancel()
			}
			scI.RoundStart(r)
		}
		killed := newCampaign(t, netsim.NewTransport(scI.Net), cfgI)
		if poisoned {
			poison(killed)
		}
		if _, err := killed.RunContext(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted run returned %v, want context.Canceled", err)
		}

		ck := mustLoad(t, ckPath)
		scR := topo.Generate(simtest.Default(dests))
		finalPath := filepath.Join(dir, "resumed.ck")
		resumed := newCampaign(t, netsim.NewTransport(scR.Net), checkpointConfig(scR, finalPath))
		if err := resumed.Resume(ck); err != nil {
			t.Fatal(err)
		}
		recycled := new(poisonCount)
		if poisoned {
			recycled = poison(resumed)
		}
		res := mustRun(t, resumed)
		if poisoned && recycled.pairs != (cfgM.Rounds-killAt)*dests {
			t.Errorf("%d pairs recycled after the resume, want %d", recycled.pairs, (cfgM.Rounds-killAt)*dests)
		}
		return res.Stats, readFile(t, finalPath)
	}
	cleanStats, cleanCk := killAndResume(false)
	gotStats, gotCk := killAndResume(true)
	if !reflect.DeepEqual(cleanStats, want) || !reflect.DeepEqual(gotStats, want) {
		t.Errorf("kill+resume stats differ from the retaining uninterrupted run's:\npoisoned: %+v\nclean:    %+v\nretain:   %+v", gotStats, cleanStats, want)
	}
	if !bytes.Equal(gotCk, cleanCk) {
		t.Errorf("poisoned kill+resume checkpoint (%d bytes) differs from the unpoisoned one (%d bytes)", len(gotCk), len(cleanCk))
	}
}

// TestPoisonedFingerprintCollision drives Fold's collision branch — a
// fingerprint already interned for an unequal route, which no real route
// pair is known to produce — by planting each new classic route's
// fingerprint over another route's memo just before the fold. A collided
// route is analyzed from the caller's object and never memoized; poisoning
// it right after the fold must change nothing, and the statistics must be
// the ones an accumulator without collisions computes.
func TestPoisonedFingerprintCollision(t *testing.T) {
	sc := topo.Generate(simtest.Default(80))
	res := mustRun(t, newCampaign(t, netsim.NewTransport(sc.Net), Config{
		Dests: sc.Dests, Rounds: 5, Workers: 4, RoundStart: sc.RoundStart, PortSeed: 42, Batch: true,
	}))
	want := res.Stats

	a := NewAccumulator()
	collisions := 0
	for r := range res.Rounds {
		for i := range res.Rounds[r] {
			p := res.Rounds[r][i]
			p.Paris, p.Classic = p.Paris.Clone(), p.Classic.Clone()
			if ds := a.dests[p.Dest]; ds != nil {
				if at, found := searchMemo(ds.classic, p.Classic.Fingerprint()); !found && len(ds.classic) > 0 {
					planted := ds.classic[0]
					planted.fp = p.Classic.Fingerprint()
					ds.classic = slices.Insert(ds.classic, at, planted)
					collisions++
				}
			}
			a.Fold(&p)
			poisonRoute(p.Paris)
			poisonRoute(p.Classic)
		}
	}
	if collisions == 0 {
		t.Fatal("no classic route changed between rounds; the collision branch was not reached")
	}
	if got := Merge(len(res.Rounds), len(sc.Dests), a); !reflect.DeepEqual(got, want) {
		t.Errorf("statistics with %d planted collisions, poisoned after each fold, differ from the campaign's:\ngot:  %+v\nwant: %+v", collisions, got, want)
	}
}
