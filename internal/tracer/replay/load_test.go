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

	"repro/internal/costs"
	"repro/internal/keyhash"
	"repro/internal/pcap"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer/live"
	"repro/internal/tracer/replay"
)

// The load-path layer benchmarks and the allocation budget run on one
// capture: a seeded campaign through the real mux that loses the first
// answer to a tenth of the probes and every answer to a hundredth, and
// duplicates the first answer to a fiftieth, so that retransmit folding,
// stars and junk are all on the path, as in the repository benchmark's
// replay_lossy workload. Which answers go is a function of the probe's
// bytes and its send count, not of the order the workers send in, so every
// process records the same capture.
const (
	loadSeed, loadDests, loadWorkers, loadRounds, loadRetries = 53, 48, 4, 6, 1
)

func lossyCapture(tb testing.TB) (stats []byte, path string, sc *topo.Scenario) {
	tb.Helper()
	sc = replayTopo(tb, loadDests, loadSeed)
	// answered counts the answers each probe drew; the SimConn's lock
	// serializes the schedule's calls.
	answered := make(map[string]int)
	sched := live.SimSchedule{
		Drop: func(_ int, probe []byte) bool {
			h, n := keyhash.Mix64(keyhash.FNV1a(keyhash.FNVOffset64, probe)), answered[string(probe)]
			answered[string(probe)]++
			return h%100 == 1 || h%10 == 0 && n == 0
		},
		Dup: func(_ int, probe []byte) bool {
			h := keyhash.Mix64(keyhash.FNV1a(keyhash.FNVOffset64, probe))
			return h>>32%50 == 7 && answered[string(probe)] == 1
		},
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

// reportPerRecord turns the benchmark's elapsed time into the per-record
// figure the layer is timed in.
func reportPerRecord(b *testing.B, records int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
}

// BenchmarkLoad: exchange reconstruction alone, from a capture already in
// memory.
func BenchmarkLoad(b *testing.B) {
	_, path, _ := lossyCapture(b)
	raw, recs := readCapture(b, path)
	cfg := replay.Config{Retries: loadRetries}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Load(raw, cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportPerRecord(b, len(recs))
}

// BenchmarkOpen: what a -replay run pays before its first trace — mapping
// the file plus reconstruction. What an opened capture retains is the row
// replay/open-heap of testdata/costs.txt.
func BenchmarkOpen(b *testing.B) {
	_, path, _ := lossyCapture(b)
	_, recs := readCapture(b, path)
	cfg := replay.Config{Retries: loadRetries}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Open(path, cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportPerRecord(b, len(recs))
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

// TestLoadAllocBudget reads the load path's rows of testdata/costs.txt, over
// the lossy capture. The allocation rows are counts, stable where timings
// are not: framing a capture allocates nothing but the Scanner
// (replay/scan-allocs); Open allocates per slab, per block of the parse
// stage and per table growth step, never per packet (replay/open-allocs, per
// record). replay/open-heap is the Go heap an opened capture retains per
// record: the exchanges, the flow table and the heads. The capture's bytes
// are outside it, mapped from the file, not on the heap.
func TestLoadAllocBudget(t *testing.T) {
	rows := costs.Rows{}
	_, path, _ := lossyCapture(t)
	raw, recs := readCapture(t, path)
	n := len(recs)
	if n < 10000 {
		t.Fatalf("fixture holds only %d records: too few for a per-record budget to mean anything", n)
	}
	rows.Allocs("replay/scan-allocs", 1, nil, func() {
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
	cfg := replay.Config{Retries: loadRetries}
	opened := func() { open(t, path, cfg) }
	rows.Allocs("replay/open-allocs", n, opened, opened)
	rows.Heap("replay/open-heap", n, func(mark func()) any {
		mark()
		return open(t, path, cfg)
	})
	rows.Check(t)
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

// replayPkg is the import path of the package under test, which
// simtest.Goroutines counts goroutines by.
const replayPkg = "repro/internal/tracer/replay"

// openCase is a capture file Open is run on, and what it must say: a
// substring of the error, or empty for success.
type openCase struct{ name, path, want string }

// openCases writes, into a fresh directory, a capture that loads and each
// way Open refuses one: torn, not beginning with a probe, empty, and the
// header-only capture pcap.CreateCapture installs.
func openCases(t *testing.T) []openCase {
	raw, recs := readCapture(t, filepath.Join("testdata", "corpus", "clean-paris-udp.pcap"))
	noProbe := encode(t, append([]pcap.Record{{TS: recs[0].TS, Data: []byte{0x45}}}, recs...))
	dir := t.TempDir()
	var cases []openCase
	for _, c := range []struct {
		name, want string
		raw        []byte
	}{
		{"loaded", "", raw},
		{"torn", "complete records precede the tear", raw[:len(raw)-3]},
		{"no-probe", "does not begin with a probe", noProbe},
		{"empty", "pcap: truncated file: empty input", nil},
		{"header-only", "replay: capture holds no records", encode(t, nil)},
	} {
		path := filepath.Join(dir, c.name+".pcap")
		if err := os.WriteFile(path, c.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, openCase{c.name, path, c.want})
	}
	return cases
}

// open20 opens c twenty times, dropping each Transport, and fails t on any
// result but c's.
func open20(t *testing.T, c openCase) {
	for range 20 {
		_, err := replay.Open(c.path, replay.Config{})
		if (c.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Fatalf("%s: Open error %v, want %q", c.name, err, c.want)
		}
	}
}

// TestOpenLeavesNoGoroutine: Open joins its parse stage however the load
// ends — a capture loaded, a torn one refused (the stage ran to the tear),
// one that does not begin with a probe — and refuses an empty and a
// header-only file with the errors a read of the whole file gave.
func TestOpenLeavesNoGoroutine(t *testing.T) {
	for _, c := range openCases(t) {
		before := simtest.Goroutines(replayPkg)
		open20(t, c)
		// A joined goroutine may still be on its way out: give it a moment.
		for deadline := time.Now().Add(2 * time.Second); ; {
			n := simtest.NewGoroutines(replayPkg, before, 0)
			if n == 0 {
				break
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%s: %d goroutines of this package left after 20 opens\n%s", c.name, n, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}
