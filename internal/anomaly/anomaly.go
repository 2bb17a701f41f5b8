package anomaly

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"

	"repro/internal/tracer"
)

// Loop is an observed loop: the same address at two or more consecutive
// hops of one measured route (Section 4.1). Its signature is the pair
// (Addr, Dest).
type Loop struct {
	Addr netip.Addr
	Dest netip.Addr
	// Start is the index in Route.Hops of the first repeated hop.
	Start int
	// Len is the number of consecutive hops carrying Addr (>= 2).
	Len int
	// AtEnd reports whether the loop runs to the end of the measured
	// route (where unreachability and NAT loops live).
	AtEnd bool
}

// Cycle is an observed cycle: an address appearing at least twice in one
// measured route, separated by at least one distinct address (Section 4.2).
// Its signature is the pair (Addr, Dest).
type Cycle struct {
	Addr netip.Addr
	Dest netip.Addr
	// First and Second are hop indices of two qualifying appearances.
	First, Second int
	// Period is the length of the repeating address sequence when the
	// route is periodic (a forwarding-loop telltale), else 0.
	Period int
}

// Diamond is a diamond signature in a per-destination graph: a pair (h, t)
// of addresses such that measured routes toward the destination contain
// ...h, r_i, t... for at least two distinct r_i (Section 4.3).
type Diamond struct {
	Head, Tail netip.Addr
	Dest       netip.Addr
	// Mids are the distinct intermediate addresses observed (k >= 2).
	Mids []netip.Addr
}

// FindLoops scans a measured route for loops. Stars never participate: the
// paper's definition requires addresses. Runs of the same address are
// reported as a single loop.
func FindLoops(rt *tracer.Route) []Loop {
	var out []Loop
	hops := rt.Hops
	for i := 0; i < len(hops)-1; {
		if hops[i].Star() {
			i++
			continue
		}
		j := i
		for j+1 < len(hops) && !hops[j+1].Star() && hops[j+1].Addr == hops[i].Addr {
			j++
		}
		if j > i {
			out = append(out, Loop{
				Addr:  hops[i].Addr,
				Dest:  rt.Dest,
				Start: i,
				Len:   j - i + 1,
				AtEnd: j == len(hops)-1,
			})
		}
		i = j + 1
	}
	return out
}

// FindCycles scans a measured route for cycles: r ... r' ... r with r' ≠ r.
// Consecutive repeats (loops) do not qualify. One Cycle is reported per
// cycling address. A route is at most MaxTTL hops, so an address's first
// appearance and "already reported" are found by scanning: a cycle-free
// route — nearly every route — allocates nothing.
func FindCycles(rt *tracer.Route) []Cycle {
	hops := rt.Hops
	var out []Cycle
next:
	for i, h := range hops {
		if h.Star() {
			continue
		}
		// f is the address's first appearance; hop i itself ends the scan.
		f := 0
		for hops[f].Star() || hops[f].Addr != h.Addr {
			f++
		}
		if f == i {
			continue
		}
		for _, c := range out {
			if c.Addr == h.Addr {
				continue next
			}
		}
		// Require at least one distinct intervening address. A repeat
		// without one is skipped but not marked: a later repeat is still
		// tested against f.
		distinct := false
		for k := f + 1; k < i; k++ {
			if !hops[k].Star() && hops[k].Addr != h.Addr {
				distinct = true
				break
			}
		}
		if !distinct {
			continue
		}
		out = append(out, Cycle{
			Addr:   h.Addr,
			Dest:   rt.Dest,
			First:  f,
			Second: i,
			Period: periodOf(hops, f, i),
		})
	}
	return out
}

// periodOf checks whether the address sequence between two appearances of
// an address repeats with a fixed period — the forwarding-loop telltale
// the paper looks for ("we should repeatedly observe a fixed sequence of
// addresses"). Returns the period, or 0 if the route is not periodic there.
func periodOf(hops []tracer.Hop, first, second int) int {
	p := second - first
	if p <= 0 {
		return 0
	}
	// Verify at least one full extra period (or to end of route) matches.
	matched := 0
	for k := second; k < len(hops); k++ {
		a, b := hops[k], hops[k-p]
		if a.Star() || b.Star() || a.Addr != b.Addr {
			return 0
		}
		matched++
	}
	if matched == 0 {
		return 0
	}
	return p
}

// Graph is the per-destination diamond index of Section 4.3: the set of
// (h, mid, t) address triples seen at three consecutive responding hops of
// the measured routes merged in, held as one slice sorted by (h, t, mid), so
// the middles observed between a head and a tail are one contiguous run.
//
// An address key is an IPv4 address's four bytes as a big-endian uint32:
// ordered like netip.Addr.Less, and pointer-free, so the collector never
// scans an index. The tracer and internal/packet are IPv4-only; a responding
// hop whose address is anything else (IPv6, IPv4-mapped, zoned, or the zero
// Addr) has no key, and Add panics on it rather than alias another address.
type Graph struct {
	Dest netip.Addr
	// Routes is the number of measured routes merged in.
	Routes  int
	triples []triple
}

type triple struct{ h, t, mid uint32 }

func (a triple) ht() uint64 { return uint64(a.h)<<32 | uint64(a.t) }

func addrKey(a netip.Addr) uint32 {
	if !a.Is4() {
		panic(fmt.Sprintf("anomaly: hop address %v is not IPv4: the diamond index cannot key it", a))
	}
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

func keyAddr(k uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], k)
	return netip.AddrFrom4(b)
}

// NewGraph creates an empty per-destination graph.
func NewGraph(dest netip.Addr) *Graph { return &Graph{Dest: dest} }

// search returns where tr sorts in the index and whether it is there.
func (g *Graph) search(tr triple) (int, bool) {
	lo, hi := 0, len(g.triples)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x := g.triples[m]; x.ht() < tr.ht() || x.ht() == tr.ht() && x.mid < tr.mid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(g.triples) && g.triples[lo] == tr
}

// Add merges one measured route into the graph: one triple per window of
// three responding hops. Stars break adjacency.
//
// Add is idempotent below the Routes counter: the index is a set, so merging
// a route whose triples are already present changes nothing (and allocates
// nothing). That is the incremental-dedup contract streaming accumulators
// build on — a graph grown one route per round holds exactly the triples of
// the distinct routes seen, and re-adding an interned (round-over-round
// stable) route may be skipped without moving a diamond statistic.
func (g *Graph) Add(rt *tracer.Route) {
	g.Routes++
	hops := rt.Hops
	for i := 0; i+2 < len(hops); i++ {
		if hops[i].Star() || hops[i+1].Star() || hops[i+2].Star() {
			continue
		}
		tr := triple{h: addrKey(hops[i].Addr), t: addrKey(hops[i+2].Addr), mid: addrKey(hops[i+1].Addr)}
		if at, found := g.search(tr); !found {
			g.triples = slices.Insert(g.triples, at, tr)
		}
	}
}

// diamond reports whether at least two middles were seen between head and
// tail: the search lands on the pair's first triple, so the pair is a
// diamond exactly when the next triple is the pair's too.
func (g *Graph) diamond(head, tail netip.Addr) bool {
	first := triple{h: addrKey(head), t: addrKey(tail)}
	at, _ := g.search(first)
	return at+1 < len(g.triples) && g.triples[at+1].ht() == first.ht()
}

// Diamonds enumerates the diamond signatures of the graph: (h, t) pairs
// whose observed middles number at least two, in ascending (Head, Tail)
// order with each diamond's Mids ascending (netip.Addr.Less).
func (g *Graph) Diamonds() []Diamond {
	var out []Diamond
	for ts := g.triples; len(ts) > 0; {
		n := 1
		for n < len(ts) && ts[n].ht() == ts[0].ht() {
			n++
		}
		if n >= 2 {
			d := Diamond{Head: keyAddr(ts[0].h), Tail: keyAddr(ts[0].t), Dest: g.Dest, Mids: make([]netip.Addr, n)}
			for i, tr := range ts[:n] {
				d.Mids[i] = keyAddr(tr.mid)
			}
			out = append(out, d)
		}
		ts = ts[n:]
	}
	return out
}
