package replay_test

import (
	"net/netip"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/tracer/replay"
)

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
		{"clean-paris-udp", 0, 684, 0, dests(10, 7, 1, 4, 11, 12, 5, 2, 8, 6, 3, 9)},
		{"drop-retry-paris-udp", 1, 484, 0, dests(5, 1, 6, 7, 2, 3, 4, 8)},
		{"drop-retry-paris-udp", 0, 854, 0, dests(5, 1, 6, 7, 2, 3, 4, 8)},
		{"reorder-tcptraceroute", 0, 64, 4, dests(1, 2, 3, 4)},
	} {
		rt := open(t, filepath.Join("testdata", "corpus", c.name+".pcap"), replay.Config{Retries: c.retries})
		if rt.Exchanges() != c.exchanges || rt.Junk() != c.junk || !slices.Equal(rt.Destinations(), c.dests) {
			t.Errorf("%s at retries %d: %d exchanges, %d junk, destinations %v; want %d, %d, %v",
				c.name, c.retries, rt.Exchanges(), rt.Junk(), rt.Destinations(), c.exchanges, c.junk, c.dests)
		}
	}
}
