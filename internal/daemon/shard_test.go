package daemon

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/tracer"
)

// TestShardFoldsWithoutDaemonLock: a successful pair folds under its
// shard's lock alone, so a fold completes while another goroutine holds the
// daemon mutex.
func TestShardFoldsWithoutDaemonLock(t *testing.T) {
	d := mustNew(t, testConfig(freeTopo(t, 4, 3, 0)))
	defer d.Stop()
	ds := d.sched.dests[0]
	hints := ds.Hints
	pair, err := measure.NewProber(d.tp, d.cfg.Probe).MeasurePair(ds.dest, 0, &hints)
	if err != nil {
		t.Fatal(err)
	}

	d.mu.Lock()
	folded := make(chan struct{})
	go func() {
		d.finish(&job{ds: ds}, &pair, nil, hints)
		close(folded)
	}()
	select {
	case <-folded:
	case <-time.After(10 * time.Second):
		t.Fatal("a successful fold waited for the daemon mutex")
	}
	d.mu.Unlock()
	if s := d.Snapshot(); s.Routes != 1 || ds.Pairs != 1 {
		t.Fatalf("%d routes folded, %d pairs scheduled; want 1 and 1", s.Routes, ds.Pairs)
	}
}

// TestShardRecoveryRetunesWorkers: the shard count is the checkpoint's, so a
// daemon saved with three workers resumes with two or five, three shards
// still, and ends with the statistics of the run never interrupted.
func TestShardRecoveryRetunesWorkers(t *testing.T) {
	const half = 5
	build := func(path string, workers int) Config {
		cfg := testConfig(freeTopo(t, 20, 41, 0.5))
		cfg.Period = 2
		cfg.Workers = workers
		cfg.CheckpointPath = path
		return cfg
	}
	ref := mustNew(t, build(filepath.Join(t.TempDir(), "ref.ck"), 3))
	defer ref.Stop()
	tick(ref, 2*half)
	want, _ := json.Marshal(ref.Snapshot())

	for _, workers := range []int{2, 5} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "daemon.ck")
			a := mustNew(t, build(path, 3))
			tick(a, half)
			stop(t, a)

			b := mustNew(t, build(path, workers))
			if ok, at := b.Recovered(); !ok || at != half {
				t.Fatalf("recovered=%v at=%d, want true at %d", ok, at, half)
			}
			if len(b.shards) != 3 {
				t.Fatalf("%d shards after recovery with %d workers, want the checkpoint's 3", len(b.shards), workers)
			}
			tick(b, half)
			got, _ := json.Marshal(b.Snapshot())
			stop(t, b)
			if string(got) != string(want) {
				t.Fatalf("resumed with %d workers, the statistics differ from the uninterrupted run:\ngot:  %s\nwant: %s", workers, got, want)
			}
			if ck := mustLoad(t, path); len(ck.Workers) != 3 {
				t.Fatalf("the resumed daemon saved %d shards, want 3", len(ck.Workers))
			}
		})
	}
}

// slotKiller wedges the first exchange toward hold until release is
// closed, and panics every exchange toward a destination in poison while
// armed.
type slotKiller struct {
	tracer.Transport
	hold    netip.Addr
	held    atomic.Bool
	release chan struct{}
	poison  map[netip.Addr]bool
	armed   atomic.Bool
}

func (k *slotKiller) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	dst := netip.AddrFrom4([4]byte(probes[0][16:20]))
	if dst == k.hold && k.held.CompareAndSwap(false, true) {
		<-k.release
	}
	if k.armed.Load() && k.poison[dst] {
		panic("injected: slot killer")
	}
	k.Transport.ExchangeBatch(probes, out)
}

// TestShardStealsFromDeadSlot: the jobs of a dead slot's shard are taken
// by the slots still alive. Two slots own two destinations each; slot 0 is
// wedged on its first while slot 1 panics on both of its own and dies at
// its second panic. From then on slot 0 measures all four destinations,
// with no failed pair.
func TestShardStealsFromDeadSlot(t *testing.T) {
	sc := freeTopo(t, 4, 13, 0)
	cfg := testConfig(sc)
	cfg.Period = 1
	cfg.Workers = 2
	cfg.MaxWorkerRestarts = 1
	k := &slotKiller{Transport: cfg.Transport, hold: sc.Dests[0], release: make(chan struct{}),
		poison: map[netip.Addr]bool{sc.Dests[2]: true, sc.Dests[3]: true}}
	k.armed.Store(true)
	cfg.Transport = k
	d := mustNew(t, cfg)
	defer d.Stop()

	tickDone := make(chan struct{})
	go func() {
		d.Tick()
		close(tickDone)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for d.Health().WorkersDead == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slot 1 never died: %+v", d.Health())
		}
		runtime.Gosched()
	}
	k.armed.Store(false)
	close(k.release)
	<-tickDone
	if s := d.Snapshot(); s.Robust.Probed != 2 || s.Robust.Failed != 2 || s.Robust.DeadWorkers != 1 || s.Robust.WorkerRestarts != 1 {
		t.Fatalf("first round: %+v, want 2 probed, 2 failed, 1 restart, 1 dead slot", s.Robust)
	}

	tick(d, 3)
	if s := d.Snapshot(); s.Robust.Probed != 2+3*4 || s.Robust.Failed != 2 {
		t.Fatalf("after the slot died: probed %d failed %d, want %d and 2", s.Robust.Probed, s.Robust.Failed, 2+3*4)
	}
	for i, ds := range d.sched.dests {
		want := int64(4) // every round
		if ds.shard == 1 {
			want = 3 // every round but the first, whose pairs failed
		}
		if ds.shard != i/2 || ds.Pairs != want {
			t.Errorf("destination %d: shard %d, %d pairs; want shard %d, %d pairs", i, ds.shard, ds.Pairs, i/2, want)
		}
	}
	if h := d.Health(); h.Status != "degraded" || h.WorkersAlive != 1 || h.WorkersDead != 1 {
		t.Fatalf("health %+v, want degraded with 1 alive and 1 dead", h)
	}
}
