package measure

import (
	"bytes"
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
// accepted, restores every worker body in it and encodes the file again. A
// body the restore accepts must be what the restored accumulator writes.
func recodeCheckpoint(t *testing.T, file []byte) ([]byte, error) {
	ck := new(Checkpoint)
	if err := ckpt.Decode(file, ckpt.KindCampaign, checkpointVersion, ck.Decode); err != nil {
		return nil, err
	}
	for w, st := range ck.Workers {
		if a, err := RestoreAccumulator(st); err == nil && !bytes.Equal(mustState(t, a).head, st.head) {
			t.Fatalf("worker %d: a restored %d-byte body writes back different bytes", w, len(st.head))
		}
	}
	var buf bytes.Buffer
	err := ckpt.Encode(&buf, ckpt.KindCampaign, checkpointVersion, ck.Encode)
	return buf.Bytes(), err
}

// FuzzDecodeCheckpoint: the campaign checkpoint decoder is total on
// arbitrary bytes (see ckpttest.Check for the properties), and so is the
// restore of every accumulator body it slices out. Seeded with the golden
// toy checkpoint and its truncation ladder, and with the previous versions'
// goldens, whose bodies Check also wraps in a current frame: the old layouts
// read as the new one.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, name := range []string{"toy-v6.ck", "toy-v5.ck", "toy-v4.ck"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		ckpttest.Seed(f, golden)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ckpttest.Check(t, ckpt.KindCampaign, checkpointVersion, data, func(file []byte) ([]byte, error) {
			return recodeCheckpoint(t, file)
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
	accs, err := ck.Restore(ck.Digest, len(ck.Dests), len(ck.Workers))
	if err != nil {
		b.Fatal(err)
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
