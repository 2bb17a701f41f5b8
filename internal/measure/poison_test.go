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
	"time"

	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// The poison suite pins the route-ownership rule (doc.go, "Route ownership")
// from the outside: every route is scribbled over at the moment it is given
// back to its worker, so anything that still reads a recycled route — an
// accumulator that kept a pointer instead of a copy, a ring that folds after
// recycling, a retry that reuses a half-built pair — turns into wrong
// statistics or a wrong checkpoint instead of a silent aliasing bug. The
// reference is always the path that never recycles: Stream=false + Analyze.

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

// shardedScenario is the default topology — per-packet flips, zero-TTL pods,
// loopers and all — cut into four shards: with four shard-affine workers each
// shard's network only ever sees one worker, so even the schedule-dependent
// gadgets are reproducible run to run at four workers.
func shardedScenario(dests int) *topo.Scenario {
	g := topo.DefaultGenConfig()
	g.Destinations = dests
	g.Shards = 4
	g.PZeroTTLPod = 0.2
	g.PLooperPod = 0.2
	return topo.Generate(g)
}

func poisonConfig(sc *topo.Scenario, stream bool, ckPath string) Config {
	cfg := Config{
		Dests:      sc.Dests,
		Rounds:     6,
		Workers:    4,
		RoundStart: sc.RoundStart,
		PortSeed:   42,
		ShardOf:    sc.ShardOf,
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
// twin: each worker's pairs folded in plan order into a fresh accumulator.
func referenceCheckpoint(t *testing.T, c *Campaign, res *Results) []byte {
	t.Helper()
	accs := make([]*Accumulator, c.cfg.Workers)
	for w := range accs {
		accs[w] = NewAccumulator()
		for r := range res.Rounds {
			for _, i := range c.plan[w] {
				accs[w].Fold(&res.Rounds[r][i])
			}
		}
	}
	path := filepath.Join(t.TempDir(), "reference.ck")
	if err := c.checkpoint(len(res.Rounds), accs).Save(path); err != nil {
		t.Fatal(err)
	}
	return readFile(t, path)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cloneRounds deep-copies retained results.
func cloneRounds(rounds [][]Pair) [][]Pair {
	out := make([][]Pair, len(rounds))
	for r := range rounds {
		out[r] = make([]Pair, len(rounds[r]))
		for i, p := range rounds[r] {
			p.Paris, p.Classic = p.Paris.Clone(), p.Classic.Clone()
			out[r][i] = p
		}
	}
	return out
}

// comparePoisoned runs the campaign config describes twice over fresh
// scenarios — materialized and untouched, streamed and poisoned — and
// requires the same Stats and the same final checkpoint, byte for byte. prep,
// when non-nil, adjusts each campaign before it runs. It returns how many
// lone Paris routes the poisoned run gave back.
func comparePoisoned(t *testing.T, scenario func() *topo.Scenario, transport func(*topo.Scenario) tracer.Transport,
	config func(sc *topo.Scenario, stream bool, ckPath string) Config, prep func(*Campaign, tracer.Transport)) (lones int) {
	t.Helper()
	build := func(stream bool, ckPath string) *Campaign {
		sc := scenario()
		tp := transport(sc)
		c, err := NewCampaign(tp, config(sc, stream, ckPath))
		if err != nil {
			t.Fatal(err)
		}
		if prep != nil {
			prep(c, tp)
		}
		return c
	}

	mat := build(false, "")
	resM, err := mat.Run()
	if err != nil {
		t.Fatal(err)
	}
	kept := cloneRounds(resM.Rounds)
	want := Analyze(resM)
	if want.Loops.Instances == 0 || want.Diamonds.Total == 0 {
		t.Fatal("reference campaign saw no anomalies; comparison degenerate")
	}

	ckPath := filepath.Join(t.TempDir(), "poisoned.ck")
	str := build(true, ckPath)
	recycled := poison(str)
	resS, err := str.Run()
	if err != nil {
		t.Fatal(err)
	}
	if recycled.pairs != want.Routes {
		t.Errorf("%d pairs recycled, want every one of the %d measured", recycled.pairs, want.Routes)
	}
	if !reflect.DeepEqual(resS.Stats, want) {
		t.Errorf("poisoned streamed stats differ from Analyze over retained results:\nstream:  %+v\nanalyze: %+v", resS.Stats, want)
	}
	if got, ref := readFile(t, ckPath), referenceCheckpoint(t, str, resM); !bytes.Equal(got, ref) {
		t.Errorf("poisoned streamed checkpoint (%d bytes) differs from the one rebuilt from retained results (%d bytes)", len(got), len(ref))
	}

	// The materialized campaign never gives a route back: its results stay
	// valid however long the campaign keeps measuring through the same
	// workers.
	poison(mat)
	if _, err := mat.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resM.Rounds, kept) {
		t.Error("retained Results.Rounds changed after the campaign measured on")
	}
	return recycled.lones
}

func shardedTransport(sc *topo.Scenario) tracer.Transport { return sc.Transport() }

// TestPoisonedStreamMatchesAnalyze is the suite's main gate: streamed,
// batched, four workers, flips on.
func TestPoisonedStreamMatchesAnalyze(t *testing.T) {
	comparePoisoned(t, func() *topo.Scenario { return shardedScenario(200) }, shardedTransport, poisonConfig, nil)
}

// TestPoisonedProbesPerHop3 repeats it with three probes per hop: such routes
// carry an All table whose rows alias a per-trace backing array, Scratch
// leaves them to the collector, and the accumulator's copy must be deep.
func TestPoisonedProbesPerHop3(t *testing.T) {
	comparePoisoned(t, func() *topo.Scenario { return shardedScenario(120) }, shardedTransport, poisonConfig,
		func(c *Campaign, tp tracer.Transport) {
			for w := range c.probers {
				c.probers[w] = newProber(tp, c.cfg.PortSeed, tracer.Options{
					MinTTL: c.cfg.MinTTL, MaxTTL: c.cfg.MaxTTL, MaxConsecutiveStars: c.cfg.MaxConsecutiveStars,
					Batch: true, ProbesPerHop: 3,
				})
			}
		})
}

// classicFailer fails, once per destination, the first batch of the round-1
// classic ladder with a transient error — after the pair's Paris trace has
// succeeded — so the retry path gives a finished Paris route back and
// measures the pair again.
type classicFailer struct {
	tracer.BatchTransport
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
				out[i] = tracer.ProbeResult{Err: tracer.Transient(errors.New("injected classic failure"))}
			}
			return
		}
	}
	c.BatchTransport.ExchangeBatch(probes, out)
}

// TestPoisonedRetryAfterClassicFailure covers the retry path where the Paris
// trace succeeded and the classic one failed.
func TestPoisonedRetryAfterClassicFailure(t *testing.T) {
	var failers []*classicFailer
	lones := comparePoisoned(t, func() *topo.Scenario { return shardedScenario(120) },
		func(sc *topo.Scenario) tracer.Transport {
			f := &classicFailer{BatchTransport: sc.Transport().(tracer.BatchTransport), seed: 42, failed: make(map[netip.Addr]bool)}
			failers = append(failers, f)
			return f
		},
		func(sc *topo.Scenario, stream bool, ckPath string) Config {
			cfg := poisonConfig(sc, stream, ckPath)
			cfg.Sleep = func(time.Duration) {}
			return cfg
		}, nil)
	for _, f := range failers {
		if len(f.failed) != 120 {
			t.Errorf("classic ladder failed toward %d destinations, want all 120", len(f.failed))
		}
	}
	if lones != 120 {
		t.Errorf("%d lone Paris routes given back, want one per destination", lones)
	}
}

// nthBatchFailer fails one whole batch, the n-th it carries, with a fatal
// error.
type nthBatchFailer struct {
	tracer.BatchTransport
	n, calls int
}

func (f *nthBatchFailer) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	f.calls++
	if f.calls == f.n {
		for i := range probes {
			out[i] = tracer.ProbeResult{Err: errors.New("injected batch failure")}
		}
		return
	}
	f.BatchTransport.ExchangeBatch(probes, out)
}

// TestPoisonedFailFastAbort aborts a FailFast campaign mid-round with pairs
// still staged in the ring, then runs the same campaign again: the staged
// routes are dropped, never given back, and the rerun — through the same
// worker and its pool — must match an unpoisoned twin put through the same
// two runs.
func TestPoisonedFailFastAbort(t *testing.T) {
	const dests = 60
	run := func(poisoned bool) *Stats {
		sc := topo.Generate(invarianceConfig(dests))
		// Two or more batches per pair: the 150th falls in round 0's second
		// half or in round 1, with dozens of pairs staged either way.
		ft := &nthBatchFailer{BatchTransport: netsim.NewTransport(sc.Net), n: 150}
		c, err := NewCampaign(ft, Config{
			Dests: sc.Dests, Rounds: 4, Workers: 1, RoundStart: sc.RoundStart, PortSeed: 42,
			Batch: true, Stream: true, FailFast: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.foldEvery = 1 << 20
		recycled := new(poisonCount)
		if poisoned {
			recycled = poison(c)
		}
		if _, err := c.Run(); err == nil || ft.calls != ft.n {
			t.Fatalf("first run: err %v after %d batches, want an abort on batch %d", err, ft.calls, ft.n)
		}
		if recycled.pairs != 0 {
			t.Fatalf("%d pairs given back by an aborted run that never folded", recycled.pairs)
		}
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
// the one an unpoisoned kill and resume writes. (It is not the uninterrupted
// run's: responders' IP ID counters are not part of a checkpoint, so routes
// first seen after a resume intern with other IP IDs.)
func TestPoisonedResume(t *testing.T) {
	const dests, killAt = 60, 3
	scM := topo.Generate(invarianceConfig(dests))
	cfgM := checkpointConfig(scM, "")
	cfgM.Stream = false
	mat, err := NewCampaign(netsim.NewTransport(scM.Net), cfgM)
	if err != nil {
		t.Fatal(err)
	}
	resM, err := mat.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := Analyze(resM)

	killAndResume := func(poisoned bool) (*Stats, []byte) {
		dir := t.TempDir()
		ckPath := filepath.Join(dir, "killed.ck")
		scI := topo.Generate(invarianceConfig(dests))
		cfgI := checkpointConfig(scI, ckPath)
		cfgI.TransportState = transportState(scI.Net)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfgI.RoundStart = func(r int) {
			if r == killAt {
				cancel()
			}
			scI.RoundStart(r)
		}
		killed, err := NewCampaign(netsim.NewTransport(scI.Net), cfgI)
		if err != nil {
			t.Fatal(err)
		}
		if poisoned {
			poison(killed)
		}
		if _, err := killed.RunContext(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted run returned %v, want context.Canceled", err)
		}

		ck, err := LoadCheckpoint(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		scR := topo.Generate(invarianceConfig(dests))
		finalPath := filepath.Join(dir, "resumed.ck")
		resumed, err := NewCampaign(netsim.NewTransport(scR.Net), checkpointConfig(scR, finalPath))
		if err != nil {
			t.Fatal(err)
		}
		restoreTransport(t, scR.Net, ck.Transport)
		if err := resumed.Resume(ck); err != nil {
			t.Fatal(err)
		}
		recycled := new(poisonCount)
		if poisoned {
			recycled = poison(resumed)
		}
		res, err := resumed.Run()
		if err != nil {
			t.Fatal(err)
		}
		if poisoned && recycled.pairs != (cfgM.Rounds-killAt)*dests {
			t.Errorf("%d pairs recycled after the resume, want %d", recycled.pairs, (cfgM.Rounds-killAt)*dests)
		}
		return res.Stats, readFile(t, finalPath)
	}
	cleanStats, cleanCk := killAndResume(false)
	gotStats, gotCk := killAndResume(true)
	if !reflect.DeepEqual(cleanStats, want) || !reflect.DeepEqual(gotStats, want) {
		t.Errorf("kill+resume stats differ from Analyze over the retained uninterrupted run:\npoisoned: %+v\nclean:    %+v\nanalyze:  %+v", gotStats, cleanStats, want)
	}
	if !bytes.Equal(gotCk, cleanCk) {
		t.Errorf("poisoned kill+resume checkpoint (%d bytes) differs from the unpoisoned one (%d bytes)", len(gotCk), len(cleanCk))
	}
}

// TestPoisonedFingerprintCollision drives foldAt's collision branch — a
// fingerprint already interned for an unequal route, which no real route
// pair is known to produce — by planting each new classic route's
// fingerprint over another route's memo just before the fold. A collided
// route is analyzed from the caller's object and never memoized; poisoning
// it right after the fold must change nothing, and the statistics must be
// the ones an accumulator without collisions computes.
func TestPoisonedFingerprintCollision(t *testing.T) {
	sc := topo.Generate(invarianceConfig(80))
	c, err := NewCampaign(netsim.NewTransport(sc.Net), Config{
		Dests: sc.Dests, Rounds: 5, Workers: 4, RoundStart: sc.RoundStart, PortSeed: 42, Batch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := Analyze(res)

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
		t.Errorf("statistics with %d planted collisions, poisoned after each fold, differ from Analyze:\ngot:  %+v\nwant: %+v", collisions, got, want)
	}
}
