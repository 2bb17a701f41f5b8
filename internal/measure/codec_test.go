package measure

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/ckpt/ckpttest"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// recodeCheckpoint decodes a campaign checkpoint file and, if it is
// accepted, encodes the result again.
func recodeCheckpoint(file []byte) ([]byte, error) {
	ck := new(Checkpoint)
	if err := ckpt.Decode(file, ckpt.KindCampaign, checkpointVersion, ck.Decode); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err := ckpt.Encode(&buf, ckpt.KindCampaign, checkpointVersion, ck.Encode)
	return buf.Bytes(), err
}

// FuzzDecodeCheckpoint: the campaign checkpoint decoder is total on
// arbitrary bytes (see ckpttest.Check for the properties). Seeded with the
// golden toy checkpoint and its truncation ladder, and with the previous
// version's golden, whose body Check also wraps in a current frame: the old
// layout read as the new one.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, name := range []string{"toy-v5.ck", "toy-v4.ck"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		ckpttest.Seed(f, golden)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ckpttest.Check(t, ckpt.KindCampaign, checkpointVersion, data, recodeCheckpoint)
	})
}

// benchCheckpoint runs the seeded 200-destination x 8-round campaign the
// layer benchmarks share and returns its final checkpoint: 2 workers, so the
// file carries more than one AccState.
func benchCheckpoint(b *testing.B) *Checkpoint {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.ck")
	sc := topo.Generate(invarianceConfig(200))
	cfg := checkpointConfig(sc, path)
	cfg.Workers = 2
	cfg.CheckpointEvery = cfg.Rounds
	camp, err := NewCampaign(netsim.NewTransport(sc.Net), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := camp.Run(); err != nil {
		b.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		b.Fatal(err)
	}
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
// verification, decode (not the accumulator replay, which
// RestoreAccumulator does afterwards).
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

// countWriter discards what it is given and counts it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkAccStateEncode is the codec alone — every worker's AccState
// through the encoder into a discarding writer, no file system — so a change
// in ns/op here is the field layout's, not the disk's.
func BenchmarkAccStateEncode(b *testing.B) {
	ck := benchCheckpoint(b)
	var w countWriter
	b.ReportAllocs()
	for b.Loop() {
		w.n = 0
		err := ckpt.Encode(&w, ckpt.KindCampaign, checkpointVersion, func(e *ckpt.Encoder) {
			for i := range ck.Workers {
				ck.Workers[i].Encode(e)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.n), "bytes/checkpoint")
}
