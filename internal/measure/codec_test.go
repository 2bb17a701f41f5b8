package measure

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/ckpt/ckpttest"
	"repro/internal/netsim"
	"repro/internal/simtest"
	"repro/internal/topo"
)

// recodeCheckpoint decodes a campaign checkpoint file and, if it is
// accepted — it decodes, and Restore accepts its body against dests, the
// toy configuration's destinations — encodes it again, the body rebuilt by
// NewCheckpoint from the restored accumulators, as a campaign writes it:
// such a body must write back the same bytes.
func recodeCheckpoint(t *testing.T, dests []netip.Addr, file []byte) ([]byte, error) {
	ck := new(Checkpoint)
	if err := ckpt.Decode(file, ckpt.KindCampaign, CheckpointVersion, ck.Decode); err != nil {
		return nil, err
	}
	accs, err := ck.Restore(ck.Digest, dests)
	if err != nil {
		return nil, err
	}
	rebuilt, err := NewCheckpoint(ck.Digest, ck.NextRound, ck.Dests, accs, func() json.RawMessage { return ck.Transport })
	if err != nil {
		t.Fatalf("a restored body cannot be written back: %v", err)
	}
	var buf bytes.Buffer
	err = ckpt.Encode(&buf, ckpt.KindCampaign, CheckpointVersion, rebuilt.Encode)
	return buf.Bytes(), err
}

// swappedBodies is the toy campaign run at three workers, its checkpoint
// with the bodies of shards 0 and 1 swapped: each holds the other's block,
// which no run writes.
func swappedBodies(tb testing.TB) []byte {
	sc, cfg := goldenConfig(filepath.Join(tb.TempDir(), "swapped.ck"))
	cfg.Workers = 3
	mustRun(tb, newCampaign(tb, netsim.NewTransport(sc.Net), cfg))
	ck := mustLoad(tb, cfg.CheckpointPath)
	ck.Workers[0], ck.Workers[1] = ck.Workers[1], ck.Workers[0]
	var buf bytes.Buffer
	if err := ckpt.Encode(&buf, ckpt.KindCampaign, CheckpointVersion, ck.Encode); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeCheckpoint: the campaign checkpoint decoder is total on
// arbitrary bytes (see ckpttest.Check for the properties), and so is the
// restore of the body against the toy configuration, which is what resume
// runs. Seeded with the golden toy checkpoint and its truncation ladder,
// with the toy campaign's three-worker checkpoint whose first two bodies
// are swapped, and with the previous versions' goldens, whose bodies Check
// also wraps in a current frame: the old layouts read as the new one.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, name := range []string{"toy-v7.ck", "toy-v6.ck", "toy-v5.ck", "toy-v4.ck"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		ckpttest.Seed(f, golden)
	}
	ckpttest.Seed(f, swappedBodies(f))
	sc, _ := goldenConfig("")
	f.Fuzz(func(t *testing.T, data []byte) {
		ckpttest.Check(t, ckpt.KindCampaign, CheckpointVersion, data, func(file []byte) ([]byte, error) {
			return recodeCheckpoint(t, sc.Dests, file)
		})
	})
}

// benchCheckpoint runs the seeded 200-destination x 8-round campaign the
// layer benchmarks share and returns its final checkpoint: 2 workers, so the
// file carries more than one AccState.
func benchCheckpoint(b *testing.B) *Checkpoint {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.ck")
	sc := topo.Generate(simtest.Default(200))
	cfg := checkpointConfig(sc, path)
	cfg.Workers = 2
	cfg.CheckpointEvery = cfg.Rounds
	mustRun(b, newCampaign(b, netsim.NewTransport(sc.Net), cfg))
	ck := mustLoad(b, path)
	return ck
}

func reportFileSize(b *testing.B, path string) {
	b.Helper()
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(st.Size()), "bytes/checkpoint")
}

// BenchmarkCheckpointSave is one end-of-round checkpoint write as the
// campaign pays it: encode, stream to the temp file, fsync, rename,
// directory fsync — on whatever file system holds the test's temp dir.
func BenchmarkCheckpointSave(b *testing.B) {
	ck := benchCheckpoint(b)
	path := filepath.Join(b.TempDir(), "save.ck")
	b.ReportAllocs()
	for b.Loop() {
		if err := ck.Save(path); err != nil {
			b.Fatal(err)
		}
	}
	reportFileSize(b, path)
}

// BenchmarkCheckpointLoad is what a resume reads back: file read, frame
// verification and the run body, whose worker bodies it slices out (not the
// accumulator replay, which RestoreAccumulator does afterwards).
func BenchmarkCheckpointLoad(b *testing.B) {
	ck := benchCheckpoint(b)
	path := filepath.Join(b.TempDir(), "load.ck")
	if err := ck.Save(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := LoadCheckpoint(path); err != nil {
			b.Fatal(err)
		}
	}
	reportFileSize(b, path)
}

// BenchmarkAccStateEncode is the accumulator codec alone: State of every
// worker's accumulator, restored from the benchmark checkpoint, and its body
// streamed through a frame to io.Discard, with no file system — so a change
// in ns/op here is the body layout's and its encoder's, not the disk's.
func BenchmarkAccStateEncode(b *testing.B) {
	ck := benchCheckpoint(b)
	accs := make([]*Accumulator, len(ck.Workers))
	for w, st := range ck.Workers {
		a, err := RestoreAccumulator(st)
		if err != nil {
			b.Fatal(err)
		}
		accs[w] = a
	}
	n := 0
	b.ReportAllocs()
	for b.Loop() {
		n = 0
		for _, a := range accs {
			n += encodeState(b, a).size()
		}
	}
	b.ReportMetric(float64(n), "bytes/checkpoint")
}
