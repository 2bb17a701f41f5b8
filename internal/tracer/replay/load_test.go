package replay_test

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/pcap"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer/live"
	"repro/internal/tracer/replay"
)

// The load-path layer benchmarks and the allocation budget run on one kind
// of capture: a seeded campaign through the real mux with every tenth
// response lost and every fiftieth duplicated, so that retransmit folding,
// stars and junk are all on the path, as in the repository benchmark's
// replay_lossy workload.
const (
	loadSeed, loadDests, loadWorkers, loadRounds, loadRetries = 53, 48, 4, 6, 1
)

func lossyCapture(tb testing.TB) (stats []byte, path string, sc *topo.Scenario) {
	tb.Helper()
	sc = replayTopo(tb, loadDests, loadSeed)
	sched := live.SimSchedule{
		Drop: func(ord int, _ []byte) bool { return ord%10 == 3 },
		Dup:  func(ord int) bool { return ord%50 == 7 },
	}
	captured, path := captureCampaign(tb, sc, sched, loadRetries, loadWorkers, loadRounds)
	return simtest.JSON(captured), path, sc
}

// readCapture reads the capture at path, both whole and as its records.
func readCapture(tb testing.TB, path string) (raw []byte, recs []pcap.Record) {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	if recs, err = pcap.ReadAll(bytes.NewReader(raw)); err != nil {
		tb.Fatal(err)
	}
	return raw, recs
}

// encode writes recs as a capture.
func encode(tb testing.TB, recs []pcap.Record) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		if err := w.WritePacket(time.Unix(0, r.TS), r.Data); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// load is replay.Load for a test: a capture that does not load fails it.
func load(tb testing.TB, raw []byte, cfg replay.Config) *replay.Transport {
	tb.Helper()
	rt, err := replay.Load(raw, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return rt
}

// retainedPerRecord reports the heap bytes still reachable from what build
// returns, per record.
func retainedPerRecord(records int, build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(records)
}

// reportPerRecord turns the benchmark's per-iteration totals into the
// per-record figures the layer budget is kept in.
func reportPerRecord(b *testing.B, records int, mallocsBefore uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := float64(b.N) * float64(records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(ms.Mallocs-mallocsBefore)/n, "allocs/record")
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// BenchmarkLoad: exchange reconstruction alone, from a capture already in
// memory. retained-B/record is what the Transport holds beyond the
// capture's own bytes.
func BenchmarkLoad(b *testing.B) {
	_, path, _ := lossyCapture(b)
	raw, recs := readCapture(b, path)
	cfg := replay.Config{Retries: loadRetries}
	retained := retainedPerRecord(len(recs), func() any {
		return load(b, raw, cfg)
	})
	b.ResetTimer()
	m := mallocs()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Load(raw, cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportPerRecord(b, len(recs), m)
	b.ReportMetric(retained, "retained-B/record")
}

// BenchmarkOpen: what a -replay run pays before its first trace — the file
// read plus reconstruction. retained-B/record includes the capture's bytes.
func BenchmarkOpen(b *testing.B) {
	_, path, _ := lossyCapture(b)
	_, recs := readCapture(b, path)
	records := len(recs)
	recs = nil // not part of what an opened capture retains
	cfg := replay.Config{Retries: loadRetries}
	retained := retainedPerRecord(records, func() any {
		return open(b, path, cfg)
	})
	b.ResetTimer()
	m := mallocs()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Open(path, cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportPerRecord(b, records, m)
	b.ReportMetric(retained, "retained-B/record")
}

// BenchmarkServe: the captured campaign re-run over an opened capture, load
// excluded — the tracer ladder and the measurement fold are in the figure,
// as they are in a -replay run.
func BenchmarkServe(b *testing.B) {
	_, path, sc := lossyCapture(b)
	cfg := replay.Config{Retries: loadRetries}
	probes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rt := open(b, path, cfg)
		b.StartTimer()
		replayCampaign(b, rt, sc, loadWorkers, loadRounds)
		if l := rt.Leftover(); l != 0 {
			b.Fatalf("%d captured exchanges never served", l)
		}
		probes += rt.Exchanges()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probes), "ns/probe")
}

// TestLoadAllocBudget pins the load path's allocation counts, which are
// stable where timings are not: framing a capture allocates nothing, and
// Open allocates per slab, per block of the parse stage and per table growth
// step, never per packet.
func TestLoadAllocBudget(t *testing.T) {
	_, path, _ := lossyCapture(t)
	raw, recs := readCapture(t, path)
	n := float64(len(recs))
	if n < 10000 {
		t.Fatalf("fixture holds only %v records: too few for a per-record budget to mean anything", n)
	}
	scan := testing.AllocsPerRun(3, func() {
		s, err := pcap.NewScanner(raw)
		if err != nil {
			t.Fatal(err)
		}
		for s.Next() {
		}
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
	})
	if scan > 1 {
		t.Errorf("pcap.Scanner: %v allocations for %v records, want the Scanner's own at most", scan, n)
	}
	opened := testing.AllocsPerRun(3, func() {
		if _, err := replay.Open(path, replay.Config{Retries: loadRetries}); err != nil {
			t.Fatal(err)
		}
	})
	if opened/n > 0.05 {
		t.Errorf("replay.Open: %v allocations for %v records (%.4f/record, budget 0.05)", opened, n, opened/n)
	}
	t.Logf("%v records: Scanner %v allocs, Open %.5f allocs/record", n, scan, opened/n)
}

// TestLoadLeavesBytesAlone pins the read-only half of the aliasing contract:
// loading and serving never write to the capture's bytes, so two Transports
// loaded from one buffer serve the same campaign, the captured one.
func TestLoadLeavesBytesAlone(t *testing.T) {
	want, path, sc := lossyCapture(t)
	raw, _ := readCapture(t, path)
	before := sha256.Sum256(raw)
	for i := 0; i < 2; i++ {
		rt := load(t, raw, replay.Config{Retries: loadRetries})
		if sha256.Sum256(raw) != before {
			t.Fatalf("transport %d: loading modified the capture", i)
		}
		got := simtest.JSON(replayCampaign(t, rt, sc, loadWorkers, loadRounds))
		if !bytes.Equal(got, want) {
			t.Errorf("transport %d over the shared capture diverges from the captured campaign", i)
		}
		if l := rt.Leftover(); l != 0 {
			t.Errorf("transport %d: %d captured exchanges never served", i, l)
		}
		if sha256.Sum256(raw) != before {
			t.Fatalf("transport %d: serving modified the capture it aliases", i)
		}
	}
}

// TestOpenLeavesNoGoroutine: Open joins its parse stage however the load
// ends — a capture loaded, a torn one refused (the stage ran to the tear),
// and one that does not begin with a probe.
func TestOpenLeavesNoGoroutine(t *testing.T) {
	raw, recs := readCapture(t, filepath.Join("testdata", "corpus", "clean-paris-udp.pcap"))
	noProbe := encode(t, append([]pcap.Record{{TS: recs[0].TS, Data: []byte{0x45}}}, recs...))
	dir := t.TempDir()
	for _, c := range []struct {
		name, want string // want: a substring of the error; empty: success
		raw        []byte
	}{
		{"loaded", "", raw},
		{"torn", "complete records precede the tear", raw[:len(raw)-3]},
		{"no-probe", "does not begin with a probe", noProbe},
	} {
		path := filepath.Join(dir, c.name+".pcap")
		if err := os.WriteFile(path, c.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		for range 20 {
			_, err := replay.Open(path, replay.Config{})
			if (c.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.want)) {
				t.Fatalf("%s: Open error %v, want %q", c.name, err, c.want)
			}
		}
		// A joined goroutine may still be on its way out: give it a moment.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%s: %d goroutines after 20 opens, %d before\n%s", c.name, runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	}
}
