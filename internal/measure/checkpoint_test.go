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
	"time"

	"repro/internal/ckpt"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// checkpointConfig is the campaign shape the resume tests run: streaming
// and batched with one worker over a flip-free topology — the conditions
// under which two plain runs are byte-identical, so any divergence after a
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

// transportState captures a network's probe counter as the opaque
// checkpoint payload, the way a binary would.
func transportState(net *netsim.Network) func() json.RawMessage {
	return func() json.RawMessage {
		b, _ := json.Marshal(struct{ ProbeCount int }{net.ProbeCount()})
		return b
	}
}

func restoreTransport(t *testing.T, net *netsim.Network, raw json.RawMessage) {
	t.Helper()
	var st struct{ ProbeCount int }
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decoding transport state: %v", err)
	}
	net.SetProbeCount(st.ProbeCount)
}

// TestCheckpointResumeByteIdentical is the acceptance gate: a campaign
// killed mid-study and resumed from its checkpoint — fresh process, fresh
// scenario, restored transport cursor — produces final statistics
// byte-identical to the uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	const dests, killAt = 60, 4
	dir := t.TempDir()

	// Uninterrupted reference run.
	scU := topo.Generate(invarianceConfig(dests))
	cfgU := checkpointConfig(scU, filepath.Join(dir, "uninterrupted.ck"))
	cfgU.TransportState = transportState(scU.Net)
	campU, err := NewCampaign(netsim.NewTransport(scU.Net), cfgU)
	if err != nil {
		t.Fatal(err)
	}
	resU, err := campU.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resU.Stats.Loops.Instances == 0 || resU.Stats.Diamonds.Total == 0 {
		t.Fatal("reference campaign degenerate")
	}

	// Interrupted run: the context is canceled as round killAt begins, so
	// the checkpoint on disk covers exactly rounds [0, killAt).
	ckPath := filepath.Join(dir, "interrupted.ck")
	scI := topo.Generate(invarianceConfig(dests))
	cfgI := checkpointConfig(scI, ckPath)
	cfgI.TransportState = transportState(scI.Net)
	ctx, cancel := context.WithCancel(context.Background())
	inner := cfgI.RoundStart
	cfgI.RoundStart = func(r int) {
		if r == killAt {
			cancel()
		}
		inner(r)
	}
	campI, err := NewCampaign(netsim.NewTransport(scI.Net), cfgI)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campI.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}

	// Resume in a "fresh process": new scenario, new campaign, transport
	// cursor restored from the checkpoint's opaque payload.
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NextRound != killAt {
		t.Fatalf("checkpoint resumes at round %d, want %d", ck.NextRound, killAt)
	}
	scR := topo.Generate(invarianceConfig(dests))
	cfgR := checkpointConfig(scR, filepath.Join(dir, "resumed.ck"))
	cfgR.TransportState = transportState(scR.Net)
	campR, err := NewCampaign(netsim.NewTransport(scR.Net), cfgR)
	if err != nil {
		t.Fatal(err)
	}
	restoreTransport(t, scR.Net, ck.Transport)
	if err := campR.Resume(ck); err != nil {
		t.Fatal(err)
	}
	resR, err := campR.Run()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(resU.Stats, resR.Stats) {
		t.Errorf("resumed stats differ from uninterrupted stats:\nuninterrupted: %+v\nresumed:       %+v", resU.Stats, resR.Stats)
	}
	ju, err := json.Marshal(resU.Stats)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := json.Marshal(resR.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if string(ju) != string(jr) {
		t.Error("resumed stats JSON not byte-identical to uninterrupted run")
	}
}

// TestCheckpointResumeFromFinal: the final checkpoint (NextRound == Rounds)
// resumes to a no-op run whose merged statistics still match.
func TestCheckpointResumeFromFinal(t *testing.T) {
	const dests = 40
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "final.ck")

	sc := topo.Generate(invarianceConfig(dests))
	camp, err := NewCampaign(netsim.NewTransport(sc.Net), checkpointConfig(sc, ckPath))
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NextRound != 8 {
		t.Fatalf("final checkpoint cursor = %d, want 8", ck.NextRound)
	}
	sc2 := topo.Generate(invarianceConfig(dests))
	camp2, err := NewCampaign(netsim.NewTransport(sc2.Net), checkpointConfig(sc2, filepath.Join(dir, "re.ck")))
	if err != nil {
		t.Fatal(err)
	}
	if err := camp2.Resume(ck); err != nil {
		t.Fatal(err)
	}
	res2, err := camp2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Stats, res2.Stats) {
		t.Error("stats merged from a final checkpoint differ from the original run")
	}
}

// TestCheckpointCadence: CheckpointEvery > 1 writes only at its boundaries
// (plus the final round), so the cursor on disk is always a multiple of the
// cadence or the campaign end.
func TestCheckpointCadence(t *testing.T) {
	const dests = 20
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "cadence.ck")

	sc := topo.Generate(invarianceConfig(dests))
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
	camp, err := NewCampaign(netsim.NewTransport(sc.Net), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	// Cursor seen at the start of each round r: no file until 3 rounds
	// (indices 0-2) completed, then 3 until 6 completed, then 6.
	want := []int{-1, -1, -1, 3, 3, 3, 6, 6}
	if !reflect.DeepEqual(cursors, want) {
		t.Fatalf("checkpoint cursors per round = %v, want %v", cursors, want)
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
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
		sc := topo.Generate(invarianceConfig(dests))
		cfg := checkpointConfig(sc, path)
		cfg.Rounds = rounds
		cfg.Sleep = func(time.Duration) {}
		cfg.TransportState = transportState(sc.Net)
		camp, err := NewCampaign(netsim.WrapFaults(netsim.NewTransport(sc.Net), plan), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return camp, sc
	}

	campU, _ := build(filepath.Join(dir, "u.ck"))
	resU, err := campU.Run()
	if err != nil {
		t.Fatal(err)
	}
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

	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	campR, scR := build(filepath.Join(dir, "r.ck"))
	restoreTransport(t, scR.Net, ck.Transport)
	// The faults wrapper's per-destination ordinals restart at zero in the
	// resumed process, but a blackhole's schedule is position-independent
	// from BlackholeStart 0, so the policy outcome is identical.
	if err := campR.Resume(ck); err != nil {
		t.Fatal(err)
	}
	resR, err := campR.Run()
	if err != nil {
		t.Fatal(err)
	}
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

	sc := topo.Generate(invarianceConfig(dests))
	camp, err := NewCampaign(netsim.NewTransport(sc.Net), checkpointConfig(sc, ckPath))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}

	// Different port seed → different digest → refused.
	sc2 := topo.Generate(invarianceConfig(dests))
	cfg2 := checkpointConfig(sc2, ckPath)
	cfg2.PortSeed = 43
	other, err := NewCampaign(netsim.NewTransport(sc2.Net), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Resume(ck); err == nil {
		t.Error("Resume accepted a checkpoint from a different campaign config")
	}

	// Non-streaming campaign → refused.
	cfg3 := checkpointConfig(sc2, ckPath)
	cfg3.Stream = false
	mat, err := NewCampaign(netsim.NewTransport(sc2.Net), cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if err := mat.Resume(ck); err == nil {
		t.Error("Resume accepted a checkpoint on a non-streaming campaign")
	}

	// Unknown version → refused at load, whatever the rest of the file says.
	raw, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
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
	// The previous binary version is refused by version, with no upgrade
	// path: testdata/toy-v4.ck is the golden file of the version-4 layout.
	if _, err := LoadCheckpoint(filepath.Join("testdata", "toy-v4.ck")); !errors.Is(err, ckpt.ErrVersion) {
		t.Errorf("version-4 checkpoint: got %v, want ErrVersion", err)
	}

	// The digest covers the batch window, as the daemon's always has.
	cfg4 := checkpointConfig(sc2, ckPath)
	cfg4.BatchWindow = 5
	windowed, err := NewCampaign(netsim.NewTransport(sc2.Net), cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if err := windowed.Resume(ck); !errors.Is(err, ErrDigest) {
		t.Errorf("Resume under another BatchWindow: got %v, want ErrDigest", err)
	}

	// A frame that verifies around a body no run can have written — a
	// negative round cursor, a cursor past the campaign's end, a negative
	// failure count — is refused by Restore, not resumed.
	for name, tamper := range map[string]func(*Checkpoint){
		"negative cursor":   func(c *Checkpoint) { c.NextRound = -1 },
		"cursor past end":   func(c *Checkpoint) { c.NextRound = 9 },
		"negative budget":   func(c *Checkpoint) { c.Dests[3].ConsecFails = -2 },
		"missing dest":      func(c *Checkpoint) { c.Dests = c.Dests[1:] },
		"extra accumulator": func(c *Checkpoint) { c.Workers = append(c.Workers, AccState{}) },
	} {
		bad := *ck
		bad.Dests = slices.Clone(ck.Dests)
		tamper(&bad)
		if err := camp.Resume(&bad); err == nil || errors.Is(err, ErrDigest) {
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
		sc := topo.Generate(invarianceConfig(dests))
		cfg := checkpointConfig(sc, ckPath)
		cfg.Batch = false
		camp, err := NewCampaign(netsim.NewTransport(sc.Net), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return camp, sc
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
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
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
		sc := topo.Generate(invarianceConfig(dests))
		camp, err := NewCampaign(netsim.NewTransport(sc.Net), checkpointConfig(sc, ckPath))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := camp.Run(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dir := t.TempDir()
	a, b := run(dir), run(t.TempDir())
	if !bytes.Equal(a, b) {
		t.Error("identical campaigns wrote different checkpoint bytes")
	}

	ck, err := LoadCheckpoint(filepath.Join(dir, "d.ck"))
	if err != nil {
		t.Fatal(err)
	}
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
		if !reflect.DeepEqual(acc.State(), st) {
			t.Errorf("worker %d: restored accumulator snapshots to a different state", w)
		}
	}
}

// goldenConfig is the toy campaign testdata/toy-v5.ck was written by: small
// enough to commit, large enough to meet a loop (so the per-cause map, the
// loop address set and the signature spans are not all empty).
func goldenConfig(path string) (*topo.Scenario, Config) {
	sc := topo.Generate(invarianceConfig(24))
	cfg := checkpointConfig(sc, path)
	cfg.Rounds = 6
	cfg.CheckpointEvery = 3
	cfg.TransportState = transportState(sc.Net)
	return sc, cfg
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/toy-v5.ck from the current encoder")

// TestCheckpointGolden pins the wire format: the toy campaign halted after
// three rounds must write the committed file byte for byte, and the
// committed file must resume to the uninterrupted run's statistics. A
// deliberate format change bumps checkpointVersion and regenerates the file
// (go test -run TestCheckpointGolden -update).
func TestCheckpointGolden(t *testing.T) {
	const killAt = 3
	golden := filepath.Join("testdata", "toy-v5.ck")
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
	camp, err := NewCampaign(netsim.NewTransport(sc.Net), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("halted run returned %v", err)
	}
	got, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Save no longer reproduces %s (%d bytes written, %d committed): the wire format changed", golden, len(got), len(want))
	}

	ck, err := LoadCheckpoint(golden)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NextRound != killAt || len(ck.Workers) != 1 || ck.Workers[0].LoopInstances == 0 {
		t.Fatalf("golden checkpoint degenerate: NextRound=%d workers=%d", ck.NextRound, len(ck.Workers))
	}
	scR, cfgR := goldenConfig(filepath.Join(t.TempDir(), "resumed.ck"))
	campR, err := NewCampaign(netsim.NewTransport(scR.Net), cfgR)
	if err != nil {
		t.Fatal(err)
	}
	restoreTransport(t, scR.Net, ck.Transport)
	if err := campR.Resume(ck); err != nil {
		t.Fatal(err)
	}
	resR, err := campR.Run()
	if err != nil {
		t.Fatal(err)
	}
	scU, cfgU := goldenConfig("")
	campU, err := NewCampaign(netsim.NewTransport(scU.Net), cfgU)
	if err != nil {
		t.Fatal(err)
	}
	resU, err := campU.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resU.Stats, resR.Stats) {
		t.Errorf("resuming the golden checkpoint diverges from the uninterrupted run:\nuninterrupted: %+v\nresumed:       %+v", resU.Stats, resR.Stats)
	}
}

// refusalState is a two-destination accumulator snapshot for the restore
// refusal tests: each classic route loops on two addresses around a star, so
// every list a restore checks the order of has two entries or more.
func refusalState(t *testing.T) AccState {
	t.Helper()
	a := NewAccumulator()
	for _, d := range []netip.Addr{aAddr(200), aAddr(201)} {
		a.Fold(&Pair{Dest: d, Classic: synthRoute(d, 1, 2, 2, -1, 3, 3, 4), Paris: synthRoute(d, 1, 2, 5, -1, 3, 6, 4)})
	}
	st := a.State()
	if len(st.Dests) != 2 || len(st.Dests[0].LoopSigs) != 2 {
		t.Fatalf("refusal state degenerate: %+v", st)
	}
	if _, err := RestoreAccumulator(st); err != nil {
		t.Fatalf("untouched state refused: %v", err)
	}
	return st
}

// TestRestoreRefusesDestinationTwice: a destination belongs to exactly one
// accumulator, once. A body that lists it in two workers' states would be
// merged twice (double-counting its diamonds and signatures), and a second
// copy inside one state would silently replace the first; both are refused.
func TestRestoreRefusesDestinationTwice(t *testing.T) {
	st := refusalState(t)
	ck := &Checkpoint{Workers: []AccState{st, st}}
	if _, err := ck.Restore(0, 0, 2); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("one destination in two accumulators: got %v, want ErrCorrupt", err)
	}
	twice := st
	twice.Dests = append(slices.Clone(st.Dests), st.Dests[0])
	if _, err := RestoreAccumulator(twice); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("one destination twice in an accumulator: got %v, want ErrCorrupt", err)
	}
}

// TestRestoreRefusesUnsortedLists: State writes every set and list strictly
// ascending; a restore refuses anything else instead of guessing.
func TestRestoreRefusesUnsortedLists(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(st *AccState)
	}{
		{"destinations descending", func(st *AccState) { slices.Reverse(st.Dests) }},
		{"address set descending", func(st *AccState) { slices.Reverse(st.Addrs) }},
		{"address repeated", func(st *AccState) { st.LoopAddrs = append(st.LoopAddrs, st.LoopAddrs[len(st.LoopAddrs)-1]) }},
		{"signatures descending", func(st *AccState) { slices.Reverse(st.Dests[1].LoopSigs) }},
	} {
		st := refusalState(t)
		tc.edit(&st)
		if _, err := RestoreAccumulator(st); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestRestoreRefusesAddresslessRespondingHop: a cell can say a hop responded
// while leaving its has-address bit clear, which the diamond index cannot
// key. A state that says so is refused with an error at restore, not
// answered with the index's panic.
func TestRestoreRefusesAddresslessRespondingHop(t *testing.T) {
	st := refusalState(t)
	cells := slices.Clone(st.Dests[0].Cells)
	cells[0] &^= cellHasAddr | 0xffffffff
	st.Dests[0].Cells = cells
	if _, err := RestoreAccumulator(st); !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), "no address") {
		t.Errorf("responding hop without an address: got %v, want ErrCorrupt naming it", err)
	}
}

// TestRestoreRefusesNonCanonicalCells: one row per other way a hop cell can
// differ from every cell packHop writes. Hop 0 of the first route responds;
// hop 3 is a star.
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
		st := refusalState(t)
		cells := slices.Clone(st.Dests[0].Cells)
		cells[tc.hop] = tc.edit(cells[tc.hop])
		st.Dests[0].Cells = cells
		if _, err := RestoreAccumulator(st); !errors.Is(err, ckpt.ErrCorrupt) {
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
