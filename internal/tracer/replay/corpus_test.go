package replay_test

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/tracer"
	"repro/internal/tracer/replay"
)

// TestCorpus replays every committed capture under testdata/corpus against
// its pinned golden. This is the repository's hermetic regression net for
// the whole record/replay path: no network, no privileges, no timers —
// just the pcap bytes, the flow-key attribution, and the measurement
// pipeline. A failure means replay semantics drifted from what the
// captures were taken under (or the stats/route encodings changed — in
// which case regenerate with go generate ./internal/tracer/replay and
// review the diff).
func TestCorpus(t *testing.T) {
	pcaps, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pcaps) == 0 {
		t.Fatal("no corpus captures found — run go generate ./internal/tracer/replay")
	}
	for _, path := range pcaps {
		base := strings.TrimSuffix(path, ".pcap")
		t.Run(filepath.Base(base), func(t *testing.T) {
			raw, err := os.ReadFile(base + ".json")
			if err != nil {
				t.Fatalf("corpus capture has no spec sidecar: %v", err)
			}
			var spec replay.Spec
			if err := json.Unmarshal(raw, &spec); err != nil {
				t.Fatalf("spec: %v", err)
			}
			golden, err := os.ReadFile(base + ".golden.json")
			if err != nil {
				t.Fatalf("corpus capture has no golden: %v", err)
			}

			rt, err := replay.Open(path, replay.Config{Retries: spec.Retries})
			if err != nil {
				t.Fatalf("loading capture: %v", err)
			}
			got, err := replay.RunSpec(spec, func(int) tracer.Transport { return rt })
			if err != nil {
				t.Fatalf("replaying: %v", err)
			}
			if !bytes.Equal(got, golden) {
				t.Errorf("replayed output diverges from pinned golden\ngot:\n%s\nwant:\n%s", got, golden)
			}
			if l := rt.Leftover(); l != 0 {
				t.Errorf("%d captured exchanges never served — replay under-consumed the capture", l)
			}
		})
	}
}

// TestCorpusLoad pins what loading each corpus capture reconstructs: its
// exchanges, its junk and its destinations in first-seen order. The drop
// capture is also pinned without its retry budget, where every retransmit
// is an exchange of its own.
func TestCorpusLoad(t *testing.T) {
	dests := func(lastOctets ...int) []netip.Addr {
		var as []netip.Addr
		for _, o := range lastOctets {
			as = append(as, netip.AddrFrom4([4]byte{172, 16, 0, byte(o)}))
		}
		return as
	}
	for _, c := range []struct {
		name            string
		retries         int
		exchanges, junk int
		dests           []netip.Addr
	}{
		{"clean-paris-udp", 0, 636, 0, dests(10, 11, 12, 1, 2, 3, 4, 5, 6, 7, 8, 9)},
		{"drop-retry-paris-udp", 1, 468, 0, dests(5, 6, 7, 8, 1, 2, 3, 4)},
		{"drop-retry-paris-udp", 0, 830, 0, dests(5, 6, 7, 8, 1, 2, 3, 4)},
		{"reorder-tcptraceroute", 0, 64, 4, dests(1, 2, 3, 4)},
	} {
		rt := open(t, filepath.Join("testdata", "corpus", c.name+".pcap"), replay.Config{Retries: c.retries})
		if rt.Exchanges() != c.exchanges || rt.Junk() != c.junk || !slices.Equal(rt.Destinations(), c.dests) {
			t.Errorf("%s at retries %d: %d exchanges, %d junk, destinations %v; want %d, %d, %v",
				c.name, c.retries, rt.Exchanges(), rt.Junk(), rt.Destinations(), c.exchanges, c.junk, c.dests)
		}
	}
}
