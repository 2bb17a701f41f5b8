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
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return file
}

// recodeCheckpoint decodes a daemon checkpoint file and, if it is accepted,
// encodes the result again.
func recodeCheckpoint(file []byte) ([]byte, error) {
	ck := new(Checkpoint)
	if err := ckpt.Decode(file, ckpt.KindDaemon, checkpointVersion, ck.decode); err != nil {
		return nil, err
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
	ck, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NextRound != 4 || len(ck.Dests) != 6 || ck.Dests[0].Hints.Paris == 0 ||
		len(ck.Sched) != 6 || !ck.Sched[0].Seen || ck.Sched[0].ParisFP == 0 || len(ck.Workers) != 1 ||
		ck.Workers[0].Routes == 0 || len(ck.Workers[0].Dests) != 6 || string(ck.Transport) != `{"ProbeCounts":[7]}` {
		t.Fatalf("toy checkpoint degenerate or misdecoded: %+v", ck)
	}
	again := filepath.Join(t.TempDir(), "again.ck")
	if err := ck.Save(again); err != nil {
		t.Fatal(err)
	}
	ck2, err := loadCheckpoint(again)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, ck2) {
		t.Error("checkpoint changed across save and load")
	}
	if b, _ := os.ReadFile(again); !bytes.Equal(b, file) {
		t.Error("load then save changed the file")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/toy-v4.ck from the current encoder")

// TestCheckpointGolden pins the daemon's wire format: the toy daemon's
// checkpoint must be the committed file byte for byte (it holds no RTT and
// no IP ID, so nothing in it varies run to run). A deliberate format change
// bumps checkpointVersion and regenerates the file (go test -run
// TestCheckpointGolden -update).
func TestCheckpointGolden(t *testing.T) {
	golden := filepath.Join("testdata", "toy-v4.ck")
	got := toyCheckpoint(t)
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
		t.Fatalf("the toy daemon no longer writes %s (%d bytes written, %d committed): the wire format changed", golden, len(got), len(want))
	}
}

// FuzzDecodeCheckpoint: the daemon checkpoint decoder is total on arbitrary
// bytes (see ckpttest.Check for the properties). Seeded with the toy
// checkpoint and its truncation ladder, and with the two previous versions'
// (testdata/toy-v3.ck, toy-v2.ck), whose bodies Check also wraps in a
// current frame: the old layouts read as the new one.
func FuzzDecodeCheckpoint(f *testing.F) {
	ckpttest.Seed(f, toyCheckpoint(f))
	for _, name := range []string{"toy-v3.ck", "toy-v2.ck"} {
		previous, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		ckpttest.Seed(f, previous)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ckpttest.Check(t, ckpt.KindDaemon, checkpointVersion, data, recodeCheckpoint)
	})
}
