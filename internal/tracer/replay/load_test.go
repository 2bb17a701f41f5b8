package replay_test

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"testing"

	"repro/internal/pcap"
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
	return statsJSON(tb, captured), path, sc
}

func readCapture(tb testing.TB, path string) []pcap.Record {
	tb.Helper()
	recs, err := pcap.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return recs
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

// BenchmarkFromRecords: exchange reconstruction alone, from records already
// in memory. retained-B/record is what the Transport holds beyond the
// capture's own bytes.
func BenchmarkFromRecords(b *testing.B) {
	_, path, _ := lossyCapture(b)
	recs := readCapture(b, path)
	cfg := replay.Config{Retries: loadRetries}
	retained := retainedPerRecord(len(recs), func() any {
		rt, err := replay.FromRecords(recs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return rt
	})
	b.ResetTimer()
	m := mallocs()
	for i := 0; i < b.N; i++ {
		if _, err := replay.FromRecords(recs, cfg); err != nil {
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
	records := len(readCapture(b, path))
	cfg := replay.Config{Retries: loadRetries}
	retained := retainedPerRecord(records, func() any {
		rt, err := replay.Open(path, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return rt
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
		rt, err := replay.Open(path, cfg)
		if err != nil {
			b.Fatal(err)
		}
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
// stable where timings are not: reading a capture allocates a constant
// number of times however many records it holds, and reconstruction
// allocates per slab and per table growth step, never per packet.
func TestLoadAllocBudget(t *testing.T) {
	_, path, _ := lossyCapture(t)
	recs := readCapture(t, path)
	n := float64(len(recs))
	if n < 10000 {
		t.Fatalf("fixture holds only %v records: too few for a per-record budget to mean anything", n)
	}
	read := testing.AllocsPerRun(3, func() {
		if _, err := pcap.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	})
	if read/n > 0.01 {
		t.Errorf("pcap.ReadFile: %v allocations for %v records (%.4f/record, budget 0.01)", read, n, read/n)
	}
	load := testing.AllocsPerRun(3, func() {
		if _, err := replay.FromRecords(recs, replay.Config{Retries: loadRetries}); err != nil {
			t.Fatal(err)
		}
	})
	if load/n > 0.05 {
		t.Errorf("replay.FromRecords: %v allocations for %v records (%.4f/record, budget 0.05)", load, n, load/n)
	}
	t.Logf("%v records: ReadFile %.5f allocs/record, FromRecords %.5f allocs/record", n, read/n, load/n)
}

// TestFromRecordsLeavesRecordsAlone pins the read-only half of the aliasing
// contract: loading and serving write to neither the record slice nor the
// packet bytes, so two Transports built from one []Record — both aliasing
// the same capture bytes — serve the same campaign, the captured one.
func TestFromRecordsLeavesRecordsAlone(t *testing.T) {
	want, path, sc := lossyCapture(t)
	recs := readCapture(t, path)
	digest := func() [sha256.Size]byte {
		h := sha256.New()
		for _, r := range recs {
			ts, err := r.TS.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(ts)
			h.Write(r.Data)
		}
		return [sha256.Size]byte(h.Sum(nil))
	}
	before := digest()
	for i := 0; i < 2; i++ {
		rt, err := replay.FromRecords(recs, replay.Config{Retries: loadRetries})
		if err != nil {
			t.Fatal(err)
		}
		if digest() != before {
			t.Fatalf("transport %d: FromRecords modified its input records", i)
		}
		got := statsJSON(t, replayCampaign(t, rt, sc, loadWorkers, loadRounds))
		if !bytes.Equal(got, want) {
			t.Errorf("transport %d over the shared records diverges from the captured campaign", i)
		}
		if l := rt.Leftover(); l != 0 {
			t.Errorf("transport %d: %d captured exchanges never served", i, l)
		}
		if digest() != before {
			t.Fatalf("transport %d: serving modified the records it aliases", i)
		}
	}
}
