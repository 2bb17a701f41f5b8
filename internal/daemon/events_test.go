package daemon

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestEventRingSurvivesRestoredCursor pins that the replay ring is indexed
// one way from the first publish on: a hub whose cursor recovery restored
// (setSeq) replays exactly what it buffered, in Seq order, honouring since,
// both while the ring is filling and once it has wrapped.
func TestEventRingSurvivesRestoredCursor(t *testing.T) {
	replayed := func(h *eventHub, since int64) []string {
		t.Helper()
		replay, _, cancel := h.subscribe(since)
		cancel()
		var got []string
		for _, e := range replay {
			got = append(got, fmt.Sprintf("%d:%s", e.Seq, e.Detail))
		}
		return got
	}
	publish := func(h *eventHub, n int) {
		for i := 0; i < n; i++ {
			h.publish(Event{Type: EventShed, Detail: fmt.Sprintf("e%d", h.seq()+1)})
		}
	}
	for _, tc := range []struct {
		name             string
		ringCap          int
		restored         int64
		publishes        int
		since            int64
		want, wantCursor []string
	}{
		// What every recovered daemon does first: one event, then a client.
		{"first event after recovery", 8, 1003, 1, 1003, []string{"1004:e1004"}, []string{"1004:e1004"}},
		{"filling", 8, 1003, 5, 1006,
			[]string{"1004:e1004", "1005:e1005", "1006:e1006", "1007:e1007", "1008:e1008"},
			[]string{"1007:e1007", "1008:e1008"}},
		{"wrapped", 4, 6, 6, 10,
			[]string{"9:e9", "10:e10", "11:e11", "12:e12"},
			[]string{"11:e11", "12:e12"}},
		{"wrapped, never restored", 4, 0, 6, 4,
			[]string{"3:e3", "4:e4", "5:e5", "6:e6"},
			[]string{"5:e5", "6:e6"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newEventHub(tc.ringCap)
			h.setSeq(tc.restored)
			publish(h, tc.publishes)
			if got := replayed(h, 0); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("since=0 replayed %v, want %v", got, tc.want)
			}
			if got := replayed(h, tc.since); !reflect.DeepEqual(got, tc.wantCursor) {
				t.Errorf("since=%d replayed %v, want %v", tc.since, got, tc.wantCursor)
			}
			if got := replayed(h, h.seq()); got != nil {
				t.Errorf("since=last replayed %v, want nothing", got)
			}
		})
	}
}

// TestHTTPEventsAfterRecovery is the same defect from where an operator
// stands: a daemon that faulted its way to a checkpoint dies, a second one
// recovers from the file, and its /events must answer — the first frame the
// recovered event, numbered one past the checkpointed cursor.
func TestHTTPEventsAfterRecovery(t *testing.T) {
	ckPath := filepath.Join(t.TempDir(), "daemon.ck")
	build := func() Config {
		sc := freeTopo(t, 10, 29, 0)
		cfg := testConfig(sc)
		cfg.Transport = netsim.WrapFaults(sc.Transport(), netsim.FaultPlan{Seed: 23, BlackholeEvery: 3})
		cfg.Period = 1
		cfg.CheckpointPath = ckPath
		return cfg
	}
	a := mustNew(t, build())
	tick(a, 4) // no Stop: the per-round checkpoint is all the second life gets
	ck, err := loadCheckpoint(ckPath)
	if err != nil || ck == nil {
		t.Fatalf("first life left no checkpoint: %v", err)
	}
	if ck.EventSeq == 0 {
		t.Fatal("the faulted first life published no event; the check is degenerate")
	}

	b := mustNew(t, build())
	defer b.Stop()
	if ok, _ := b.Recovered(); !ok {
		t.Fatal("second life did not recover")
	}
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events?since=0", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /events on a recovered daemon: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /events: status %d", resp.StatusCode)
	}
	var frame []string
	for sc := bufio.NewScanner(resp.Body); sc.Scan() && sc.Text() != ""; {
		frame = append(frame, sc.Text())
	}
	if len(frame) != 3 || frame[0] != fmt.Sprintf("id: %d", ck.EventSeq+1) ||
		frame[1] != "event: "+string(EventRecovered) || !strings.HasPrefix(frame[2], "data: ") {
		t.Fatalf("first frame %q, want id %d, event %s", frame, ck.EventSeq+1, EventRecovered)
	}
}
