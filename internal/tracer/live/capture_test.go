package live

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/pcap"
	"repro/internal/simtest"
	"repro/internal/tracer"
)

// Capture-under-failure suite: whatever interruption ends a campaign —
// socket death and recovery, context cancellation — the capture file on
// disk must be a complete, readable pcap of everything recorded up to that
// point, with no torn trailing record.

// readCapture closes the sink and parses the installed file fully.
func readCapture(t *testing.T, c *pcap.Capture, path string) []pcap.Record {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Fatalf("capture close: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := pcap.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("capture at %s does not parse: %v", path, err)
	}
	if len(recs) != c.Count() {
		t.Fatalf("file holds %d records, sink recorded %d", len(recs), c.Count())
	}
	return recs
}

// TestMuxCaptureSurvivesSocketRecovery kills the socket mid-campaign (the
// TestMuxSocketFailureRecovery scenario) with a capture tap armed: the mux
// redials and re-sends every stranded probe, and the capture must stay
// readable and complete — re-sends recorded like any transmission.
func TestMuxCaptureSurvivesSocketRecovery(t *testing.T) {
	const seed, workers, dests = 29, 4, 8
	sc := muxTopo(t, dests, seed)
	path := filepath.Join(t.TempDir(), "recovery.pcap")
	cap, err := pcap.CreateCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	responder := simtest.Responder(sc.Net)
	fake1 := &SimConn{Respond: responder}
	fake1.ReadErr = func(call int) error {
		if call == 0 {
			return errors.New("fake: network down")
		}
		return nil
	}
	var mu sync.Mutex
	var conns []*SimConn
	m := openFakeMux(t, MuxConfig{
		Source: sc.Net.Source(), Conn: fake1, Capture: cap,
		Redial: func() (PacketConn, error) {
			mu.Lock()
			defer mu.Unlock()
			c := &SimConn{Respond: responder}
			conns = append(conns, c)
			return c, nil
		},
	})
	got := muxTraceAll(t, m, sc, workers)
	h := m.Health()
	assertMuxDrained(t, m)
	closeMux(t, m)
	if h.Reopens != 1 {
		t.Fatalf("reopens=%d, want 1 — scenario did not exercise recovery", h.Reopens)
	}
	want := muxBaseline(t, muxTopo(t, dests, seed))
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Errorf("dest %v: route differs after recovery", sc.Dests[i])
		}
	}

	recs := readCapture(t, cap, path)
	// Every send on both conns was recorded: the probes stranded on the
	// dead socket appear once for the original send and once for the
	// re-send on the replacement.
	mu.Lock()
	wantSends := fake1.SendCount() + conns[0].SendCount()
	mu.Unlock()
	outbound := 0
	src := sc.Net.Source().As4()
	for _, r := range recs {
		if len(r.Data) >= 20 && [4]byte{r.Data[12], r.Data[13], r.Data[14], r.Data[15]} == src {
			outbound++
		}
	}
	if outbound != wantSends {
		t.Errorf("capture holds %d outbound records, conns saw %d sends", outbound, wantSends)
	}
	if len(recs) <= outbound {
		t.Errorf("capture holds no inbound records (%d total, %d outbound)", len(recs), outbound)
	}
}

// TestCaptureSurvivesContextCancellation cancels a one-handle mux's
// context mid-batch: the exchange fails with the context error, and the
// capture still installs a complete readable file of the traffic so far.
func TestCaptureSurvivesContextCancellation(t *testing.T) {
	sc := muxTopo(t, 2, 43)
	path := filepath.Join(t.TempDir(), "cancelled.pcap")
	cap, err := pcap.CreateCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	responder := simtest.Responder(sc.Net)
	calls := 0
	// Answer the first window normally, then go silent and cancel: the
	// transport is left waiting on probes that will never resolve except
	// through the context.
	fake := &SimConn{Respond: func(probe []byte) ([]byte, bool) {
		calls++
		if calls > 8 {
			cancel()
			return nil, false
		}
		return responder(probe)
	}}
	mux := openFakeMux(t, MuxConfig{Source: sc.Net.Source(), Conn: fake, Capture: cap, Context: ctx})
	fake.ReadErr = func(int) error {
		if ctx.Err() != nil {
			awaitCancel(mux)
		}
		return nil
	}
	defer cancel()
	_, err = tracer.NewParisUDP(mux.Transport(), tracer.Options{Batch: true}).Trace(sc.Dests[0])
	if err == nil {
		t.Fatal("trace survived a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("trace failed with %v, want a context.Canceled chain", err)
	}
	assertMuxDrained(t, mux)

	recs := readCapture(t, cap, path)
	if len(recs) == 0 {
		t.Fatal("capture lost the traffic sent before cancellation")
	}
	// The interrupted batch's probes were recorded before the send —
	// record-before-send ordering — so the capture must hold more records
	// than the answered first window alone.
	if len(recs) < 9 {
		t.Errorf("capture holds %d records, want the first window plus the interrupted batch", len(recs))
	}
}
