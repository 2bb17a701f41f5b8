package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/simtest"
	"repro/internal/tracer"
)

func TestHTTPHealthAndReady(t *testing.T) {
	sc := freeTopo(t, 6, 3, 0)
	d := mustNew(t, testConfig(sc))
	defer d.Stop()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		if _, err := bufio.NewReader(resp.Body).WriteTo(&buf); err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, []byte(buf.String())
	}

	// Before the first round: alive but not ready.
	if code, body := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz %d: %s", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz %d before first round, want 503", code)
	}

	d.Tick()
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz %d after first round, want 200", code)
	}
	code, body := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz %d", code)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	if h.Status != "ok" || h.Round != 1 || h.WorkersAlive != 3 {
		t.Fatalf("/healthz %+v", h)
	}

	code, body = get("/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats %d", code)
	}
	var s measure.Stats
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	if s.Robust.Probed != 6 || s.Rounds != 1 {
		t.Fatalf("/stats probed %d rounds %d, want 6/1", s.Robust.Probed, s.Rounds)
	}
}

// TestHealthReportsDroppedEvents: an /events subscriber that stops reading
// loses what overflows its buffer, and /healthz says how many.
func TestHealthReportsDroppedEvents(t *testing.T) {
	d := mustNew(t, testConfig(freeTopo(t, 2, 3, 0)))
	defer d.Stop()
	_, ch, cancel := d.events.subscribe(0)
	defer cancel()
	const extra = 5
	for i := 0; i < cap(ch)+extra; i++ {
		d.events.publish(Event{Type: EventAnomaly})
	}
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	if h.EventsDropped != extra || len(ch) != cap(ch) {
		t.Fatalf("/healthz EventsDropped = %d with %d of %d buffered, want %d", h.EventsDropped, len(ch), cap(ch), extra)
	}
}

func TestHTTPEventsSSE(t *testing.T) {
	sc := freeTopo(t, 10, 3, 0)
	cfg := testConfig(sc)
	cfg.QueueCap = 4 // round 0 sheds 6 → events to stream
	d := mustNew(t, cfg)
	defer d.Stop()
	d.Tick()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events?since=0", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// The 6 shed events replay immediately; collect them and disconnect.
	scanner := bufio.NewScanner(resp.Body)
	var events []Event
	for scanner.Scan() && len(events) < 6 {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("decode event %q: %v", line, err)
		}
		events = append(events, e)
	}
	if len(events) != 6 {
		t.Fatalf("replayed %d events, want 6", len(events))
	}
	for i, e := range events {
		if e.Type != EventShed || e.Seq != int64(i+1) {
			t.Fatalf("event %d: %+v, want shed with seq %d", i, e, i+1)
		}
	}
	cancel()

	// Cursor resume: since=4 replays only the last two.
	replay, _, unsub := d.events.subscribe(4)
	unsub()
	if len(replay) != 2 || replay[0].Seq != 5 {
		t.Fatalf("since=4 replayed %+v, want seqs 5,6", replay)
	}

	if _, err := http.Get(srv.URL + "/events?since=bogus"); err != nil {
		t.Fatalf("GET bad cursor: %v", err)
	}
}

// TestStatsSnapshotsNotTorn hammers /stats (through the real handler) while
// the daemon ticks, asserting every served snapshot lands on a fold
// boundary: the internally consistent invariants below cannot hold on a
// torn read. Every round also writes a checkpoint, encoded outside the
// daemon's locks from arrays the accumulators share with it. Run under -race
// this also proves no accumulator is read concurrently with a fold,
// and that a /stats read never writes what a checkpoint being encoded reads.
func TestStatsSnapshotsNotTorn(t *testing.T) {
	sc := freeTopo(t, 16, 9, 0)
	cfg := testConfig(sc)
	cfg.Period = 1 // fold work every round
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "daemon.ck")
	cfg.CheckpointEvery = 1
	d := mustNew(t, cfg)
	defer d.Stop()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	const rounds = 25
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick(d, rounds)
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastProbed := -1
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/stats")
				if err != nil {
					t.Errorf("GET /stats: %v", err)
					return
				}
				var s measure.Stats
				err = json.NewDecoder(resp.Body).Decode(&s)
				resp.Body.Close()
				if err != nil {
					t.Errorf("decode /stats: %v", err)
					return
				}
				// Fold-boundary invariants: the probed tally and the
				// route tally move together inside one fold, and totals
				// never run backwards between two sequential snapshots.
				if s.Robust.Probed != s.Routes {
					t.Errorf("torn snapshot: probed %d != routes %d", s.Robust.Probed, s.Routes)
					return
				}
				if s.Robust.Probed < lastProbed {
					t.Errorf("probed went backwards: %d -> %d", lastProbed, s.Robust.Probed)
					return
				}
				lastProbed = s.Robust.Probed
			}
		}()
	}
	<-done
	wg.Wait()
	if s := d.Snapshot(); s.Robust.Probed != 16*rounds {
		t.Fatalf("probed %d, want %d", s.Robust.Probed, 16*rounds)
	}
	if h := d.Health(); h.CheckpointError != "" {
		t.Fatalf("checkpoint failed: %s", h.CheckpointError)
	}
}

// TestSnapshotReadsMuxHealthUnlocked: the mux takes its own lock to report
// its health, so Snapshot asks for it before taking the daemon's, and still
// stamps it onto the statistics it serves.
func TestSnapshotReadsMuxHealthUnlocked(t *testing.T) {
	cfg := testConfig(freeTopo(t, 4, 3, 0))
	var d *Daemon
	cfg.MuxHealth = func() tracer.MuxHealth {
		if !d.mu.TryLock() {
			t.Error("MuxHealth called with the daemon mutex held")
		} else {
			d.mu.Unlock()
		}
		return tracer.MuxHealth{InFlight: 7}
	}
	d = mustNew(t, cfg)
	defer d.Stop()
	tick(d, 1)
	if s := d.Snapshot(); s.Robust.Mux == nil || s.Robust.Mux.InFlight != 7 {
		t.Fatalf("snapshot mux health %+v, want InFlight 7", s.Robust.Mux)
	}
}

// TestDaemonNoGoroutineLeaks cycles the daemon through start/tick/stop and
// asserts that every goroutine of this package it started has exited —
// workers, restart goroutines, and event subscribers all drain on Stop.
// Goroutines are counted by ID (simtest.Goroutines), so one another test
// left winding down can neither fail the check nor hide a leak from it.
func TestDaemonNoGoroutineLeaks(t *testing.T) {
	before := simtest.Goroutines(daemonPkg)
	for cycle := 0; cycle < 5; cycle++ {
		sc := freeTopo(t, 8, int64(cycle)+1, 0)
		cfg := testConfig(sc)
		d := mustNew(t, cfg)
		// Hold a live event subscription over the ticks; Stop must close it.
		_, ch, cancel := d.events.subscribe(0)
		tick(d, 3)
		stop(t, d)
		for range ch { // drains and ends when closeAll closed the channel
		}
		cancel()
	}
	// Workers park on a select; give the scheduler a bounded grace window
	// (no sleeps: just yields) to collect them.
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := simtest.NewGoroutines(daemonPkg, before, 0)
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines leaked\n%s", n, buf[:runtime.Stack(buf, true)])
		}
	}
}
