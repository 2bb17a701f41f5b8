package daemon

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/ckpt/ckpttest"
	"repro/internal/measure"
)

// toyCheckpoint runs a small daemon for a few rounds and returns the
// checkpoint file Stop leaves behind.
func toyCheckpoint(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "toy.ck")
	cfg := testConfig(freeTopo(t, 6, 3, 0))
	cfg.CheckpointPath = path
	cfg.TransportState = func() json.RawMessage { return json.RawMessage(`{"ProbeCounts":[7]}`) }
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tick(d, 4)
	stop(t, d)
	file := readFile(t, path)
	return file
}

// recodeCheckpoint decodes a daemon checkpoint file and, if it is accepted
// — it decodes, and its schedule is one recovery accepts (checkSched), on
// which the scheduler's shed lottery is then run — encodes it again, with
// every worker body the restore accepts replaced by what the restored
// accumulator writes: such a body must write back the same bytes.
func recodeCheckpoint(t *testing.T, file []byte) ([]byte, error) {
	ck := new(Checkpoint)
	if err := ckpt.Decode(file, ckpt.KindDaemon, checkpointVersion, ck.decode); err != nil {
		return nil, err
	}
	if err := ck.checkSched(len(ck.Dests)); err != nil {
		return nil, err
	}
	for i := range ck.Sched {
		shedScore(ck.Sched[i].NextDue, &destSched{DestState: ck.Sched[i], idx: i})
	}
	for w, st := range ck.Workers {
		if a, err := measure.RestoreAccumulator(st); err == nil {
			if ck.Workers[w], err = a.State(); err != nil {
				t.Fatalf("worker %d: a restored body cannot be written back: %v", w, err)
			}
		}
	}
	var buf bytes.Buffer
	err := ckpt.Encode(&buf, ckpt.KindDaemon, checkpointVersion, ck.encode)
	return buf.Bytes(), err
}

// TestCheckpointRoundTrip: every field of the daemon checkpoint survives the
// file, and a loaded checkpoint saves back to the same bytes.
func TestCheckpointRoundTrip(t *testing.T) {
	file := toyCheckpoint(t)
	path := filepath.Join(t.TempDir(), "rt.ck")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	ck := mustLoad(t, path)
	if ck.NextRound != 4 || len(ck.Dests) != 6 || ck.Dests[0].Hints.Paris == 0 ||
		len(ck.Sched) != 6 || ck.Sched[0].Pairs == 0 || len(ck.Workers) != 1 ||
		string(ck.Transport) != `{"ProbeCounts":[7]}` {
		t.Fatalf("toy checkpoint degenerate or misdecoded: %+v", ck)
	}
	if a, err := measure.RestoreAccumulator(ck.Workers[0]); err != nil || measure.Merge(4, 6, a).Routes == 0 {
		t.Fatalf("toy checkpoint's accumulator degenerate or refused: %v", err)
	}
	// Every destination was measured, so the body holds all six, and the
	// restored accumulator must write that body back: one that lost a
	// destination would write a shorter one.
	for i := range ck.Sched {
		if ck.Sched[i].Pairs == 0 {
			t.Fatalf("toy checkpoint: destination %d never measured", i)
		}
	}
	if again, err := recodeCheckpoint(t, file); err != nil || !bytes.Equal(again, file) {
		t.Fatalf("toy checkpoint with its accumulator restored does not write back the same file (%v)", err)
	}
	again := filepath.Join(t.TempDir(), "again.ck")
	if err := ck.Save(again); err != nil {
		t.Fatal(err)
	}
	ck2 := mustLoad(t, again)
	if !reflect.DeepEqual(ck, ck2) {
		t.Error("checkpoint changed across save and load")
	}
	if b, _ := os.ReadFile(again); !bytes.Equal(b, file) {
		t.Error("load then save changed the file")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/toy-v6.ck from the current encoder")

// TestCheckpointGolden pins the daemon's wire format: the toy daemon's
// checkpoint must be the committed file byte for byte (it holds no RTT and
// no IP ID, so nothing in it varies run to run). A deliberate format change
// bumps checkpointVersion and regenerates the file (go test -run
// TestCheckpointGolden -update).
func TestCheckpointGolden(t *testing.T) {
	golden := filepath.Join("testdata", "toy-v6.ck")
	got := toyCheckpoint(t)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readFile(t, golden)
	if !bytes.Equal(got, want) {
		t.Fatalf("the toy daemon no longer writes %s (%d bytes written, %d committed): the wire format changed", golden, len(got), len(want))
	}
}

// FuzzDecodeCheckpoint: the daemon checkpoint decoder is total on arbitrary
// bytes (see ckpttest.Check for the properties), and so are recovery's
// schedule checks and the restore of the accumulator body it slices out.
// Seeded with the toy checkpoint and its truncation ladder, with the files
// of TestDaemonImpossibleCheckpointStartsFresh's schedule rows, and with the
// previous versions' (testdata/toy-v5.ck, toy-v4.ck, toy-v3.ck, toy-v2.ck), whose
// bodies Check also wraps in a current frame: the old layouts read as the
// new one.
func FuzzDecodeCheckpoint(f *testing.F) {
	ckpttest.Seed(f, toyCheckpoint(f))
	for _, file := range impossibleSchedules(f) {
		ckpttest.Seed(f, file)
	}
	for _, name := range []string{"toy-v5.ck", "toy-v4.ck", "toy-v3.ck", "toy-v2.ck"} {
		previous, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		ckpttest.Seed(f, previous)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ckpttest.Check(t, ckpt.KindDaemon, checkpointVersion, data, func(file []byte) ([]byte, error) {
			return recodeCheckpoint(t, file)
		})
	})
}
