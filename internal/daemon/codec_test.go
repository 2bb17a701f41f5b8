package daemon

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/ckpt/ckpttest"
	"repro/internal/measure"
)

// toyCheckpoint runs a small daemon for a few rounds and returns the
// checkpoint file Stop leaves behind: six destinations in three shards.
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
// — it decodes, and recovery accepts its body against dests, the toy
// configuration's destinations (restore: its shards' accumulators restore,
// each holds only its block of the plan, and its schedule passes
// checkSched), on which the scheduler's shed lottery is then run — encodes
// it again, its run body rebuilt by measure.NewCheckpoint from the restored
// shards' accumulators, as the daemon writes it: such a body must write
// back the same bytes.
func recodeCheckpoint(t *testing.T, dests []netip.Addr, file []byte) ([]byte, error) {
	ck := new(Checkpoint)
	if err := ckpt.Decode(file, ckpt.KindDaemon, measure.CheckpointVersion, ck.decode); err != nil {
		return nil, err
	}
	accs, err := ck.restore(ck.Digest, dests)
	if err != nil {
		return nil, err
	}
	for i := range ck.Sched {
		shedScore(ck.Sched[i].NextDue, &destSched{DestState: ck.Sched[i], idx: i})
	}
	ck.Checkpoint, err = measure.NewCheckpoint(ck.Digest, ck.NextRound, ck.Dests, accs, func() json.RawMessage { return ck.Transport })
	if err != nil {
		t.Fatalf("a restored body cannot be written back: %v", err)
	}
	var buf bytes.Buffer
	err = ckpt.Encode(&buf, ckpt.KindDaemon, measure.CheckpointVersion, ck.encode)
	return buf.Bytes(), err
}

// toyWith is the toy checkpoint with edit applied, encoded again: with the
// edits below, a frame that verifies around a body no daemon writes.
func toyWith(t testing.TB, edit func(*Checkpoint)) []byte {
	ck := new(Checkpoint)
	if err := ckpt.Decode(toyCheckpoint(t), ckpt.KindDaemon, measure.CheckpointVersion, ck.decode); err != nil {
		t.Fatal(err)
	}
	edit(ck)
	var buf bytes.Buffer
	if err := ckpt.Encode(&buf, ckpt.KindDaemon, measure.CheckpointVersion, ck.encode); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sharedShard and swappedShards are the toy checkpoint with its second
// shard's body replaced by its first's, so two shards claim the same
// destinations, and with the two bodies swapped, so each holds the other's
// block: bodies no daemon writes.
func sharedShard(ck *Checkpoint)   { ck.Workers[1] = ck.Workers[0] }
func swappedShards(ck *Checkpoint) { ck.Workers[0], ck.Workers[1] = ck.Workers[1], ck.Workers[0] }

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
		len(ck.Sched) != 6 || ck.Sched[0].Pairs == 0 || len(ck.Workers) != 3 ||
		string(ck.Transport) != `{"ProbeCounts":[7]}` {
		t.Fatalf("toy checkpoint degenerate or misdecoded: %+v", ck)
	}
	for w, st := range ck.Workers {
		if a, err := measure.RestoreAccumulator(st); err != nil || measure.Merge(4, 6, a).Routes != 4 {
			t.Fatalf("toy checkpoint's shard %d degenerate or refused: %v", w, err)
		}
	}
	// Every destination was measured, so the shards hold two each, and the
	// restored accumulators must write those bodies back: one that lost a
	// destination would write a shorter one.
	for i := range ck.Sched {
		if ck.Sched[i].Pairs == 0 {
			t.Fatalf("toy checkpoint: destination %d never measured", i)
		}
	}
	if again, err := recodeCheckpoint(t, freeTopo(t, 6, 3, 0).Dests, file); err != nil || !bytes.Equal(again, file) {
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

var updateGolden = flag.Bool("update", false, "rewrite testdata/toy-v7.ck from the current encoder")

// TestCheckpointGolden pins the daemon's wire format: the toy daemon's
// checkpoint must be the committed file byte for byte (it holds no RTT and
// no IP ID, so nothing in it varies run to run). A deliberate format change
// bumps measure.CheckpointVersion and regenerates the file (go test -run
// TestCheckpointGolden -update).
func TestCheckpointGolden(t *testing.T) {
	golden := filepath.Join("testdata", "toy-v7.ck")
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
// bytes (see ckpttest.Check for the properties), and so is recovery's
// restore of the body against the toy configuration: its checks and the
// shards' accumulators it slices out. Seeded with the three-shard toy
// checkpoint and its truncation ladder, with the toy checkpoint under each
// of TestDaemonImpossibleCheckpointStartsFresh's schedule rows, with the
// toy checkpoint whose two shards claim the same destinations and the one
// whose two shards are swapped, and with the previous versions'
// (testdata/toy-v6.ck, toy-v5.ck, toy-v4.ck, toy-v3.ck, toy-v2.ck), whose
// bodies Check also wraps in a current frame: the old layouts read as the
// new one.
func FuzzDecodeCheckpoint(f *testing.F) {
	ckpttest.Seed(f, toyCheckpoint(f))
	for _, file := range impossibleSchedules(f) {
		ckpttest.Seed(f, file)
	}
	ckpttest.Seed(f, toyWith(f, sharedShard))
	ckpttest.Seed(f, toyWith(f, swappedShards))
	for _, name := range []string{"toy-v6.ck", "toy-v5.ck", "toy-v4.ck", "toy-v3.ck", "toy-v2.ck"} {
		previous, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		ckpttest.Seed(f, previous)
	}
	dests := freeTopo(f, 6, 3, 0).Dests
	f.Fuzz(func(t *testing.T, data []byte) {
		ckpttest.Check(t, ckpt.KindDaemon, measure.CheckpointVersion, data, func(file []byte) ([]byte, error) {
			return recodeCheckpoint(t, dests, file)
		})
	})
}
