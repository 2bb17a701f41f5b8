package measure

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/netsim"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// checkpointConfig is the campaign shape the resume tests run: streaming
// and batched with one worker. Two plain runs are byte-identical, and a
// resume needs nothing beyond the checkpoint, so any divergence after a
// resume is the checkpoint layer's fault and nothing else's.
func checkpointConfig(sc *topo.Scenario, path string) Config {
	return Config{
		Dests:          sc.Dests,
		Rounds:         8,
		Workers:        1,
		RoundStart:     sc.RoundStart,
		PortSeed:       42,
		Batch:          true,
		Stream:         true,
		CheckpointPath: path,
	}
}

// TestCheckpointPathRequiresStream: only a streaming campaign checkpoints,
// so NewCampaign refuses a checkpoint path it would silently never write.
func TestCheckpointPathRequiresStream(t *testing.T) {
	sc := topo.Generate(simtest.Default(4))
	cfg := checkpointConfig(sc, filepath.Join(t.TempDir(), "never.ck"))
	cfg.Stream = false
	if c, err := NewCampaign(netsim.NewTransport(sc.Net), cfg); err == nil || c != nil {
		t.Fatalf("NewCampaign accepted CheckpointPath without Stream: campaign %v, err %v", c, err)
	}
}

// TestCheckpointCadence: CheckpointEvery > 1 writes only at its boundaries
// (plus the final round), so the cursor on disk is always a multiple of the
// cadence or the campaign end.
func TestCheckpointCadence(t *testing.T) {
	const dests = 20
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "cadence.ck")

	sc := topo.Generate(simtest.Default(dests))
	cfg := checkpointConfig(sc, ckPath)
	cfg.CheckpointEvery = 3
	var cursors []int
	inner := cfg.RoundStart
	cfg.RoundStart = func(r int) {
		if ck, err := LoadCheckpoint(ckPath); err == nil {
			cursors = append(cursors, ck.NextRound)
		} else {
			cursors = append(cursors, -1)
		}
		inner(r)
	}
	mustRun(t, newCampaign(t, netsim.NewTransport(sc.Net), cfg))
	// Cursor seen at the start of each round r: no file until 3 rounds
	// (indices 0-2) completed, then 3 until 6 completed, then 6.
	want := []int{-1, -1, -1, 3, 3, 3, 6, 6}
	if !reflect.DeepEqual(cursors, want) {
		t.Fatalf("checkpoint cursors per round = %v, want %v", cursors, want)
	}
	ck := mustLoad(t, ckPath)
	if ck.NextRound != 8 {
		t.Fatalf("final cursor = %d, want 8", ck.NextRound)
	}
}

// TestCheckpointQuarantineSurvivesResume: the per-destination error budgets
// ride the checkpoint, so a quarantined destination stays quarantined after
// a resume and the accounting matches the uninterrupted faulty run.
func TestCheckpointQuarantineSurvivesResume(t *testing.T) {
	const (
		dests, rounds = 40, 8
		killAt        = 4
	)
	plan := netsim.FaultPlan{Seed: 11, BlackholeEvery: 5}
	dir := t.TempDir()

	build := func(path string) (*Campaign, *topo.Scenario) {
		sc := topo.Generate(simtest.Default(dests))
		cfg := checkpointConfig(sc, path)
		cfg.Rounds = rounds
		return newCampaign(t, netsim.WrapFaults(netsim.NewTransport(sc.Net), plan), cfg), sc
	}

	campU, _ := build(filepath.Join(dir, "u.ck"))
	resU := mustRun(t, campU)
	if resU.Stats.Robust.QuarantinedDests == 0 {
		t.Fatal("degenerate: no quarantines in reference run")
	}

	ckPath := filepath.Join(dir, "i.ck")
	campI, scI := build(ckPath)
	ctx, cancel := context.WithCancel(context.Background())
	innerRS := scI.RoundStart
	campI.cfg.RoundStart = func(r int) {
		if r == killAt {
			cancel()
		}
		innerRS(r)
	}
	if _, err := campI.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v", err)
	}

	ck := mustLoad(t, ckPath)
	campR, _ := build(filepath.Join(dir, "r.ck"))
	// The faults wrapper's per-destination ordinals restart at zero in the
	// resumed process, but a blackhole's schedule is position-independent
	// from BlackholeStart 0, so the policy outcome is identical.
	if err := campR.Resume(ck); err != nil {
		t.Fatal(err)
	}
	resR := mustRun(t, campR)
	if !reflect.DeepEqual(resU.Stats, resR.Stats) {
		t.Errorf("faulty resumed stats differ:\nuninterrupted: %+v\nresumed:       %+v", resU.Stats, resR.Stats)
	}
}

// TestResumeValidation: a checkpoint only resumes the campaign shape that
// wrote it.
func TestResumeValidation(t *testing.T) {
	const dests = 10
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "v.ck")

	sc := topo.Generate(simtest.Default(dests))
	camp := newCampaign(t, netsim.NewTransport(sc.Net), checkpointConfig(sc, ckPath))
	mustRun(t, camp)
	ck := mustLoad(t, ckPath)

	// Different port seed → different digest → refused.
	sc2 := topo.Generate(simtest.Default(dests))
	cfg2 := checkpointConfig(sc2, ckPath)
	cfg2.PortSeed = 43
	other := newCampaign(t, netsim.NewTransport(sc2.Net), cfg2)
	if err := other.Resume(ck); err == nil {
		t.Error("Resume accepted a checkpoint from a different campaign config")
	}

	// A checkpoint holds one body per shard and the campaign keeps its
	// shard count, so one written at 4 workers and halted after round 4
	// resumes at 1, 3 and 8 workers to the uninterrupted run's statistics.
	at := func(workers int, path string) (*Campaign, *topo.Scenario) {
		sc := topo.Generate(simtest.Default(dests))
		cfg := checkpointConfig(sc, path)
		cfg.Workers = workers
		return newCampaign(t, netsim.NewTransport(sc.Net), cfg), sc
	}
	uninterrupted, _ := at(4, "")
	want, err := json.Marshal(mustRun(t, uninterrupted).Stats)
	if err != nil {
		t.Fatal(err)
	}
	halted, sc4 := at(4, filepath.Join(dir, "w4.ck"))
	ctx, cancel := context.WithCancel(context.Background())
	halted.cfg.RoundStart = func(r int) {
		if r == 4 {
			cancel()
		}
		sc4.RoundStart(r)
	}
	if _, err := halted.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("halted run returned %v", err)
	}
	ck4 := mustLoad(t, halted.cfg.CheckpointPath)
	if ck4.NextRound != 4 || len(ck4.Workers) != 4 {
		t.Fatalf("halted checkpoint at round %d with %d bodies, want 4 and 4", ck4.NextRound, len(ck4.Workers))
	}
	for _, workers := range []int{1, 3, 8} {
		resumed, _ := at(workers, "")
		if err := resumed.Resume(ck4); err != nil {
			t.Fatalf("%d workers resuming a 4-worker checkpoint: %v", workers, err)
		}
		got, err := json.Marshal(mustRun(t, resumed).Stats)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d workers resuming a 4-worker checkpoint: statistics differ from the uninterrupted run", workers)
		}
	}

	// Non-streaming campaign → refused.
	cfg3 := checkpointConfig(sc2, "")
	cfg3.Stream = false
	mat := newCampaign(t, netsim.NewTransport(sc2.Net), cfg3)
	if err := mat.Resume(ck); err == nil {
		t.Error("Resume accepted a checkpoint on a non-streaming campaign")
	}

	// Unknown version → refused at load, whatever the rest of the file says.
	raw := readFile(t, ckPath)
	load := func(name string, data []byte) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(path)
		return err
	}
	tampered := bytes.Clone(raw)
	tampered[5] = 99 // the frame's version byte
	if err := load("version.ck", tampered); !errors.Is(err, ckpt.ErrVersion) {
		t.Errorf("version 99: got %v, want ErrVersion", err)
	}
	// Each other way a file can be unusable is its own error.
	flipped := bytes.Clone(raw)
	flipped[len(flipped)/2] ^= 0x40
	if err := load("flipped.ck", flipped); !errors.Is(err, ckpt.ErrChecksum) {
		t.Errorf("flipped bit: got %v, want ErrChecksum", err)
	}
	if err := load("cut.ck", raw[:len(raw)/2]); !errors.Is(err, ckpt.ErrTruncated) {
		t.Errorf("half a file: got %v, want ErrTruncated", err)
	}
	daemonKind := bytes.Clone(raw)
	daemonKind[4] = byte(ckpt.KindDaemon)
	if err := load("daemon.ck", daemonKind); !errors.Is(err, ckpt.ErrKind) {
		t.Errorf("daemon kind: got %v, want ErrKind", err)
	}
	if _, err := LoadCheckpoint(filepath.Join(dir, "absent.ck")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: got %v, want ErrNotExist", err)
	}
	// The previous binary versions are refused by version, with no upgrade
	// path: testdata/toy-v6.ck, toy-v5.ck and toy-v4.ck are the golden files
	// of those layouts.
	for _, name := range []string{"toy-v6.ck", "toy-v5.ck", "toy-v4.ck"} {
		if _, err := LoadCheckpoint(filepath.Join("testdata", name)); !errors.Is(err, ckpt.ErrVersion) {
			t.Errorf("%s: got %v, want ErrVersion", name, err)
		}
	}

	// A frame that verifies around a body no run can have written — a
	// negative round cursor, a cursor past the campaign's end, a negative
	// failure count, a body outside its block of the plan — is refused by
	// Restore, not resumed.
	camp4, _ := at(4, "")
	for name, tamper := range map[string]func(*Checkpoint){
		"negative cursor":   func(c *Checkpoint) { c.NextRound = -1 },
		"cursor past end":   func(c *Checkpoint) { c.NextRound = 9 },
		"negative budget":   func(c *Checkpoint) { c.Dests[3].ConsecFails = -2 },
		"missing dest":      func(c *Checkpoint) { c.Dests = c.Dests[1:] },
		"extra accumulator": func(c *Checkpoint) { c.Workers = append(c.Workers, AccState{}) },
		"no accumulator":    func(c *Checkpoint) { c.Workers = nil },
		"swapped bodies":    func(c *Checkpoint) { c.Workers[0], c.Workers[1] = c.Workers[1], c.Workers[0] },
	} {
		bad := *ck4
		bad.Dests, bad.Workers = slices.Clone(ck4.Dests), slices.Clone(ck4.Workers)
		tamper(&bad)
		if err := camp4.Resume(&bad); err == nil || errors.Is(err, ErrDigest) {
			t.Errorf("%s: Resume returned %v, want a refusal of the body", name, err)
		}
	}
}

// TestUnbatchedCampaignCheckpointsHints: the path hints ride every
// checkpoint, not only a batched campaign's — a Prober sizes its routes from
// them either way — so a halted and resumed unbatched campaign holds the
// DestRun records it was halted with.
func TestUnbatchedCampaignCheckpointsHints(t *testing.T) {
	const dests, killAt = 20, 2
	ckPath := filepath.Join(t.TempDir(), "unbatched.ck")
	build := func() (*Campaign, *topo.Scenario) {
		sc := topo.Generate(simtest.Default(dests))
		cfg := checkpointConfig(sc, ckPath)
		cfg.Batch = false
		return newCampaign(t, netsim.NewTransport(sc.Net), cfg), sc
	}
	halted, sc := build()
	ctx, cancel := context.WithCancel(context.Background())
	halted.cfg.RoundStart = func(r int) {
		if r == killAt {
			cancel()
		}
		sc.RoundStart(r)
	}
	if _, err := halted.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("halted run returned %v", err)
	}
	for i, r := range halted.runs {
		if r.Hints.Paris == 0 || r.Hints.Classic == 0 {
			t.Fatalf("destination %d has no hints after %d rounds: %+v", i, killAt, r)
		}
	}
	ck := mustLoad(t, ckPath)
	resumed, _ := build()
	if err := resumed.Resume(ck); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.runs, halted.runs) {
		t.Errorf("resumed DestRuns differ from the halted campaign's:\nhalted:  %+v\nresumed: %+v", halted.runs, resumed.runs)
	}
}

// TestDestRun pins the error budget's two transitions, the one place they
// are written: a success resets the count and takes the new hints, the
// quarantineAfter-th consecutive failure quarantines exactly once, and a
// quarantined destination stays quarantined.
func TestDestRun(t *testing.T) {
	const fail, ok = false, true
	for _, tc := range []struct {
		name            string
		pairs           []bool
		wantFails       int
		wantQuarantined bool
		wantJust        int // how many Failed calls reported the quarantine
	}{
		{"fresh", nil, 0, false, 0},
		{"below the budget", []bool{fail, fail}, 2, false, 0},
		{"success resets", []bool{fail, fail, ok, fail, fail}, 2, false, 0},
		{"k-th in a row quarantines", []bool{fail, ok, fail, fail, fail}, 3, true, 1},
		{"quarantines once", []bool{fail, fail, fail, fail}, 4, true, 1},
		{"stays quarantined", []bool{fail, fail, fail, ok}, 0, true, 1},
	} {
		var r DestRun
		just := 0
		for i, succeeded := range tc.pairs {
			if succeeded {
				r.Succeeded(PathHints{Paris: i + 1, Classic: i + 2})
				if r.Hints.Paris != i+1 || r.Hints.Classic != i+2 {
					t.Errorf("%s: Succeeded left hints %+v", tc.name, r.Hints)
				}
				continue
			}
			hints := r.Hints
			if r.Failed() {
				just++
			}
			if r.Hints != hints {
				t.Errorf("%s: Failed changed the hints", tc.name)
			}
		}
		if r.ConsecFails != tc.wantFails || r.Quarantined != tc.wantQuarantined || just != tc.wantJust {
			t.Errorf("%s: %+v with %d quarantine reports, want fails=%d quarantined=%v reports=%d",
				tc.name, r, just, tc.wantFails, tc.wantQuarantined, tc.wantJust)
		}
	}
}

// TestLegacyJSONCheckpointRefused: a checkpoint written before the binary
// format (testdata/legacy-v2.ck.json, from the last JSON build) is refused
// with an error that says what it is, not a decode failure.
func TestLegacyJSONCheckpointRefused(t *testing.T) {
	_, err := LoadCheckpoint(filepath.Join("testdata", "legacy-v2.ck.json"))
	if !errors.Is(err, ckpt.ErrLegacyJSON) {
		t.Fatalf("got %v, want ErrLegacyJSON", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "legacy JSON checkpoint") || !strings.Contains(msg, "legacy-v2.ck.json") {
		t.Errorf("error does not name the old format and the file: %q", msg)
	}
}

// TestCheckpointFilesDeterministic: the same campaign prefix writes the
// same checkpoint bytes (sorted sets, seq-ordered routes, per-cause maps in
// cause order), so checkpoint artifacts diff cleanly across runs — and a
// loaded checkpoint saves back to the bytes it was loaded from.
func TestCheckpointFilesDeterministic(t *testing.T) {
	const dests = 30
	run := func(dir string) []byte {
		ckPath := filepath.Join(dir, "d.ck")
		sc := topo.Generate(simtest.Default(dests))
		mustRun(t, newCampaign(t, netsim.NewTransport(sc.Net), checkpointConfig(sc, ckPath)))
		b := readFile(t, ckPath)
		return b
	}
	dir := t.TempDir()
	a, b := run(dir), run(t.TempDir())
	if !bytes.Equal(a, b) {
		t.Error("identical campaigns wrote different checkpoint bytes")
	}

	ck := mustLoad(t, filepath.Join(dir, "d.ck"))
	again := filepath.Join(dir, "again.ck")
	if err := ck.Save(again); err != nil {
		t.Fatal(err)
	}
	if c, err := os.ReadFile(again); err != nil || !bytes.Equal(a, c) {
		t.Errorf("load then save changed the file (%v)", err)
	}
	// Equal accumulators encode identically: one restored by replay
	// snapshots to the state it was restored from.
	for w, st := range ck.Workers {
		acc, err := RestoreAccumulator(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustState(t, acc).head, st.head) {
			t.Errorf("worker %d: restored accumulator snapshots to a different state", w)
		}
	}
}

// goldenConfig is the toy campaign testdata/toy-v7.ck (and toy-v6.ck before
// it) was written by: small
// enough to commit, large enough to meet a loop (so the per-cause map, the
// loop address set and the signature spans are not all empty). Its topology
// is the one the file was recorded over — per-packet diamonds, diff-2 and
// looper cycles, zero-TTL pods and flips off — so the committed bytes stay
// put.
func goldenConfig(path string) (*topo.Scenario, Config) {
	gen := simtest.Default(24)
	gen.PPerPacket, gen.PPerPacketUnequal, gen.PDiff2 = 0, 0, 0
	gen.PZeroTTLPod, gen.PLooperPod, gen.PFlapDiamondPod = 0, 0, 0
	gen.PFlipPod, gen.FlipPerProbe = 0, 0
	sc := topo.Generate(gen)
	cfg := checkpointConfig(sc, path)
	cfg.Rounds = 6
	cfg.CheckpointEvery = 3
	// The file carries the probe-count metric as its opaque transport
	// payload, as the binaries' checkpoints did when it was recorded.
	cfg.TransportState = func() json.RawMessage {
		b, _ := json.Marshal(struct{ ProbeCount int }{sc.Net.ProbeCount()})
		return b
	}
	return sc, cfg
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/toy-v7.ck from the current encoder")

// TestCheckpointGolden pins the wire format: the toy campaign halted after
// three rounds must write the committed file byte for byte, the committed
// file restored must write itself back, and it must resume to the
// uninterrupted run's statistics. A
// deliberate format change bumps CheckpointVersion and regenerates the file
// (go test -run TestCheckpointGolden -update).
func TestCheckpointGolden(t *testing.T) {
	const killAt = 3
	golden := filepath.Join("testdata", "toy-v7.ck")
	ckPath := filepath.Join(t.TempDir(), "toy.ck")

	sc, cfg := goldenConfig(ckPath)
	ctx, cancel := context.WithCancel(context.Background())
	inner := cfg.RoundStart
	cfg.RoundStart = func(r int) {
		if r == killAt {
			cancel()
		}
		inner(r)
	}
	camp := newCampaign(t, netsim.NewTransport(sc.Net), cfg)
	if _, err := camp.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("halted run returned %v", err)
	}
	got := readFile(t, ckPath)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readFile(t, golden)
	if !bytes.Equal(got, want) {
		t.Fatalf("Save no longer reproduces %s (%d bytes written, %d committed): the wire format changed", golden, len(got), len(want))
	}

	if again, err := recodeCheckpoint(t, sc.Dests, want); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("%s with its accumulator restored does not write back the same file (%v)", golden, err)
	}
	ck := mustLoad(t, golden)
	if ck.NextRound != killAt || len(ck.Workers) != 1 {
		t.Fatalf("golden checkpoint degenerate: NextRound=%d workers=%d", ck.NextRound, len(ck.Workers))
	}
	if a, err := RestoreAccumulator(ck.Workers[0]); err != nil || a.loopInstances == 0 {
		t.Fatalf("golden checkpoint's accumulator degenerate or refused: %v", err)
	}
	scR, cfgR := goldenConfig(filepath.Join(t.TempDir(), "resumed.ck"))
	campR := newCampaign(t, netsim.NewTransport(scR.Net), cfgR)
	if err := campR.Resume(ck); err != nil {
		t.Fatal(err)
	}
	resR := mustRun(t, campR)
	scU, cfgU := goldenConfig("")
	resU := mustRun(t, newCampaign(t, netsim.NewTransport(scU.Net), cfgU))
	if !reflect.DeepEqual(resU.Stats, resR.Stats) {
		t.Errorf("resuming the golden checkpoint diverges from the uninterrupted run:\nuninterrupted: %+v\nresumed:       %+v", resU.Stats, resR.Stats)
	}
}

// refusalAcc is a two-destination accumulator, read once, for the restore
// refusal tests: each classic route loops on two addresses around a star, so
// every list a restore checks the order of has two entries or more. A test
// corrupts it in place and State writes the corruption as it is: the views
// are current, so State takes them as they stand.
func refusalAcc(t *testing.T) *Accumulator {
	t.Helper()
	a := NewAccumulator()
	for _, d := range []netip.Addr{aAddr(200), aAddr(201)} {
		a.Fold(&Pair{Dest: d, Classic: synthRoute(d, 1, 2, 2, -1, 3, 3, 4), Paris: synthRoute(d, 1, 2, 5, -1, 3, 6, 4)})
	}
	if _, err := RestoreAccumulator(mustState(t, a)); err != nil {
		t.Fatalf("untouched state refused: %v", err)
	}
	if len(a.destView) != 2 || len(a.destView[0].loopSigs) != 2 {
		t.Fatalf("refusal accumulator degenerate: %d destinations", len(a.destView))
	}
	return a
}

// TestRestoreRefusesDestinationTwice: a destination belongs to exactly one
// accumulator, once. A body that lists it in two shards' states would be
// merged twice (double-counting its diamonds and signatures), and a second
// copy inside one state would silently replace the first; both are refused,
// the first because one of the two copies is outside its block of the plan.
func TestRestoreRefusesDestinationTwice(t *testing.T) {
	a := refusalAcc(t)
	st := mustState(t, a)
	ck := &Checkpoint{Dests: make([]DestRun, 2), Workers: []AccState{st, st}}
	if _, err := ck.Restore(0, []netip.Addr{aAddr(200), aAddr(201)}); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("one destination in two accumulators: got %v, want ErrCorrupt", err)
	}
	a.destView = slices.Insert(slices.Clone(a.destView), 0, a.destView[0])
	if _, err := RestoreAccumulator(mustState(t, a)); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("one destination twice in an accumulator: got %v, want ErrCorrupt", err)
	}
}

// TestRestoreRefusesUnsortedLists: State writes every set and list strictly
// ascending; a restore refuses anything else instead of guessing.
func TestRestoreRefusesUnsortedLists(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(a *Accumulator)
	}{
		{"destinations descending", func(a *Accumulator) { slices.Reverse(a.destView) }},
		{"address set descending", func(a *Accumulator) { slices.Reverse(a.addrs.view) }},
		{"address repeated", func(a *Accumulator) {
			v := a.loopAddrs.view
			a.loopAddrs.view = append(slices.Clip(v), v[len(v)-1])
		}},
		{"signatures descending", func(a *Accumulator) { slices.Reverse(a.destView[1].loopSigs) }},
	} {
		a := refusalAcc(t)
		tc.edit(a)
		if _, err := RestoreAccumulator(mustState(t, a)); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestRestoreRefusesHopAddressOutsideSet: every responding hop's address is
// in the accumulator's address set, so a body whose set lacks one is refused
// (the replay would add it, and the restored accumulator would write back
// another body).
func TestRestoreRefusesHopAddressOutsideSet(t *testing.T) {
	a := refusalAcc(t)
	gone := a.addrs.view[0]
	a.addrs.view = a.addrs.view[1:]
	delete(a.addrs.has, gone)
	if _, err := RestoreAccumulator(mustState(t, a)); !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), gone.String()) {
		t.Errorf("hop address %v left out of the set: got %v, want ErrCorrupt naming it", gone, err)
	}
}

// TestRestoreRefusesWhatStateCannotWrite: a halt reason no
// tracer.HaltReason has, a route interned twice and per-cause tallies out of
// ascending cause order are refused. The accumulator is corrupted in place
// for the first two; State cannot write the third, so its body is written by
// hand.
func TestRestoreRefusesWhatStateCannotWrite(t *testing.T) {
	a := refusalAcc(t)
	a.destView[0].classic[0].halt = uint8(tracer.HaltMaxTTL) + 1
	if _, err := RestoreAccumulator(mustState(t, a)); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("halt reason past HaltMaxTTL: got %v, want ErrCorrupt", err)
	}

	a = refusalAcc(t)
	ds := a.destView[0]
	mo := ds.classic[0]
	ds.cells = append(slices.Clone(ds.cells), ds.cells[mo.off:int(mo.off)+int(mo.hops)]...)
	mo.seq, mo.off = uint32(len(ds.classic)+len(ds.paris)), uint32(len(ds.cells)-int(mo.hops))
	ds.classic = append(slices.Clone(ds.classic), mo)
	if _, err := RestoreAccumulator(mustState(t, a)); !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), "collides") {
		t.Errorf("a route interned twice: got %v, want ErrCorrupt naming the collision", err)
	}

	// 15 zero tallies; loop causes 2 then 1 (zigzag 4 and 2), one each;
	// no cycle causes, no addresses, no destinations.
	body := append(make([]byte, 15), 2, 4, 2, 2, 2, 0, 0, 0, 0, 0, 0)
	if _, err := RestoreAccumulator(AccState{head: body}); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("causes descending: got %v, want ErrCorrupt", err)
	}
	body[16], body[18] = 2, 4 // causes 1 then 2
	if _, err := RestoreAccumulator(AccState{head: body}); err != nil {
		t.Errorf("the same body with causes ascending: %v", err)
	}
}

// TestStateRefusesIPv6: a body has no encoding for an IPv6 address, so State
// fails rather than write one.
func TestStateRefusesIPv6(t *testing.T) {
	a := NewAccumulator()
	p := SkippedPair(netip.MustParseAddr("2001:db8::1"), 0)
	a.Fold(&p)
	if _, err := a.State(); err == nil || !strings.Contains(err.Error(), "2001:db8::1") {
		t.Errorf("State of a quarantined IPv6 destination: error %v", err)
	}
}

// TestStateSizesHeadExactly: State allocates its head at exactly the length
// it writes, over a campaign with every gadget armed and over an accumulator
// whose hop count and rounds take two-byte varints and whose route carries a
// source address.
func TestStateSizesHeadExactly(t *testing.T) {
	sc := topo.Generate(simtest.Gadgets(60))
	res := mustRun(t, newCampaign(t, netsim.NewTransport(sc.Net), Config{
		Dests: sc.Dests, Rounds: 4, Workers: 2, RoundStart: sc.RoundStart, PortSeed: 42, Batch: true,
	}))
	campaign := NewAccumulator()
	for r := range res.Rounds {
		for i := range res.Rounds[r] {
			campaign.Fold(&res.Rounds[r][i])
		}
	}

	long := NewAccumulator()
	d := netip.AddrFrom4([4]byte{172, 16, 0, 1})
	spec := make([]int, 200) // 200 hops: a two-byte hop count
	for i := range spec {
		spec[i] = i%100 + 1 // every address twice: cycles
	}
	spec[100] = 100 // and a loop where the two runs meet
	// Rounds from 1000 on take two-byte varints.
	for round := 1000; round < 1003; round++ {
		classic, paris := synthRoute(d, spec...), synthRoute(d, 1, 2, 3)
		classic.Source, paris.Halt = aAddr(250), tracer.HaltStars
		long.Fold(&Pair{Dest: d, Round: round, Classic: classic, Paris: paris})
	}
	if len(long.dests[d].loopSigs) == 0 || len(long.dests[d].cycleSigs) == 0 {
		t.Fatal("the long route carries no loop or cycle signature")
	}

	for name, a := range map[string]*Accumulator{"gadgets campaign": campaign, "long route": long} {
		st, err := a.State()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.head) != cap(st.head) {
			t.Errorf("%s: State wrote a %d-byte head into %d bytes", name, len(st.head), cap(st.head))
		}
	}
}

// TestRestoreRefusesUnwrittenBody: a body State returned holds its hop cells
// only as noted, for Checkpoint.Encode to put in place, so a restore before
// it is written is refused; the same body written restores.
func TestRestoreRefusesUnwrittenBody(t *testing.T) {
	st, err := refusalAcc(t).State()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreAccumulator(st); !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), "noted cells") {
		t.Errorf("a body with noted cells: got %v, want ErrCorrupt naming them", err)
	}
	if _, err := RestoreAccumulator(written(t, st)); err != nil {
		t.Errorf("the same body written: %v", err)
	}
}

// editCell rewrites hop i of a's first destination (hop 0 of its first route
// responds; hop 3 is a star).
func editCell(a *Accumulator, i int, edit func(uint64) uint64) {
	ds := a.destView[0]
	ds.cells = slices.Clone(ds.cells)
	ds.cells[i] = edit(ds.cells[i])
}

// TestRestoreRefusesAddresslessRespondingHop: a cell can say a hop responded
// while leaving its has-address bit clear, which the diamond index cannot
// key. A state that says so is refused with an error at restore, not
// answered with the index's panic.
func TestRestoreRefusesAddresslessRespondingHop(t *testing.T) {
	a := refusalAcc(t)
	editCell(a, 0, func(c uint64) uint64 { return c &^ (cellHasAddr | 0xffffffff) })
	if _, err := RestoreAccumulator(mustState(t, a)); !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), "no address") {
		t.Errorf("responding hop without an address: got %v, want ErrCorrupt naming it", err)
	}
}

// TestRestoreRefusesNonCanonicalCells: one row per other way a hop cell can
// differ from every cell packHop writes.
func TestRestoreRefusesNonCanonicalCells(t *testing.T) {
	for _, tc := range []struct {
		name string
		hop  int
		edit func(uint64) uint64
	}{
		{"reserved bits set", 0, func(c uint64) uint64 { return c | 1<<62 }},
		{"a star with an address", 3, func(c uint64) uint64 { return c | cellHasAddr | uint64(addrBits(aAddr(9))) }},
		{"a star with address bytes", 3, func(c uint64) uint64 { return c | 9 }},
		{"kind out of range", 0, func(c uint64) uint64 { return c&^cellKindMask | 9<<cellKindShift }},
	} {
		a := refusalAcc(t)
		editCell(a, tc.hop, tc.edit)
		if _, err := RestoreAccumulator(mustState(t, a)); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestCellsRoundTrip: every hop packHop accepts unpacks to itself up to RTT
// and IP ID, and every hop it refuses is one no cell can hold.
func TestCellsRoundTrip(t *testing.T) {
	for _, h := range []tracer.Hop{
		{TTL: 2, ProbeTTL: -1},
		{TTL: 255, ProbeTTL: -1, Mismatched: true},
		{TTL: 7, Addr: aAddr(1), RTT: 5, Kind: tracer.KindTimeExceeded, ProbeTTL: 0, RespTTL: 250, IPID: 9},
		{TTL: 9, Addr: netip.IPv4Unspecified(), Kind: tracer.KindTCPSynAck, ProbeTTL: 127, RespTTL: 255},
		{TTL: 3, Addr: netip.MustParseAddr("192.0.2.77"), Kind: tracer.KindHostUnreachable, ProbeTTL: -128, Mismatched: true},
	} {
		c, ok := packHop(&h)
		if !ok {
			t.Errorf("%+v: no cell", h)
			continue
		}
		if err := checkCell(c); err != nil {
			t.Errorf("%+v: packed to a non-canonical cell: %v", h, err)
		}
		want := h
		want.RTT, want.IPID = 0, 0
		if got := unpackHop(c); got != want {
			t.Errorf("cell %#016x unpacks to %+v, want %+v", c, got, want)
		}
	}
	for _, h := range []tracer.Hop{
		{TTL: 256},
		{TTL: 1, ProbeTTL: 128},
		{TTL: 1, ProbeTTL: -129},
		{TTL: 1, RespTTL: -1},
		{TTL: 1, Kind: tracer.KindTCPSynAck + 1, Addr: aAddr(1)},
		{TTL: 1, Addr: aAddr(1)}, // a star with an address
		{TTL: 1, Kind: tracer.KindEchoReply},
		{TTL: 1, Kind: tracer.KindEchoReply, Addr: netip.MustParseAddr("2001:db8::1")},
	} {
		if c, ok := packHop(&h); ok {
			t.Errorf("%+v packed to cell %#016x", h, c)
		}
	}
}
