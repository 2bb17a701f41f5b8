package replay_test

import (
	"net/netip"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/tracer/replay"
)

// TestCorpusLoad pins what loading each corpus capture reconstructs: its
// exchanges, its junk and its destinations. The campaign captures' first-seen
// order is the recording run's worker interleaving, so their destinations
// are compared as a set; the single-trace capture's order is its probing
// order and is pinned as is. The drop capture is also pinned without its
// retry budget, where every retransmit is an exchange of its own.
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
		ordered         bool
	}{
		{"clean-paris-udp", 0, 684, 0, dests(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), false},
		{"drop-retry-paris-udp", 1, 484, 0, dests(1, 2, 3, 4, 5, 6, 7, 8), false},
		{"drop-retry-paris-udp", 0, 854, 0, dests(1, 2, 3, 4, 5, 6, 7, 8), false},
		{"reorder-tcptraceroute", 0, 64, 4, dests(1, 2, 3, 4), true},
	} {
		rt := open(t, filepath.Join("testdata", "corpus", c.name+".pcap"), replay.Config{Retries: c.retries})
		got := rt.Destinations()
		if !c.ordered {
			got = slices.SortedFunc(slices.Values(got), netip.Addr.Compare)
		}
		if rt.Exchanges() != c.exchanges || rt.Junk() != c.junk || !slices.Equal(got, c.dests) {
			t.Errorf("%s at retries %d: %d exchanges, %d junk, destinations %v; want %d, %d, %v",
				c.name, c.retries, rt.Exchanges(), rt.Junk(), got, c.exchanges, c.junk, c.dests)
		}
	}
}
