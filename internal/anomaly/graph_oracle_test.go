package anomaly

import (
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"repro/internal/tracer"
)

// oracleGraph is the map-of-maps diamond graph the sorted triple index
// replaced, kept as the reference the differential test drives beside it.
type oracleGraph struct {
	dest    netip.Addr
	triples map[[2]netip.Addr]map[netip.Addr]bool
}

func newOracleGraph(dest netip.Addr) *oracleGraph {
	return &oracleGraph{dest: dest, triples: make(map[[2]netip.Addr]map[netip.Addr]bool)}
}

func (g *oracleGraph) add(rt *tracer.Route) {
	hops := rt.Hops
	for i := 0; i+1 < len(hops); i++ {
		a, b := hops[i], hops[i+1]
		if a.Star() || b.Star() || i+2 >= len(hops) || hops[i+2].Star() {
			continue
		}
		key := [2]netip.Addr{a.Addr, hops[i+2].Addr}
		t := g.triples[key]
		if t == nil {
			t = make(map[netip.Addr]bool)
			g.triples[key] = t
		}
		t[b.Addr] = true
	}
}

// diamonds is the old enumeration put in the order Diamonds now defines.
func (g *oracleGraph) diamonds() []Diamond {
	var out []Diamond
	for key, mids := range g.triples {
		if len(mids) < 2 {
			continue
		}
		d := Diamond{Head: key[0], Tail: key[1], Dest: g.dest}
		for m := range mids {
			d.Mids = append(d.Mids, m)
		}
		slices.SortFunc(d.Mids, netip.Addr.Compare)
		out = append(out, d)
	}
	slices.SortFunc(out, func(a, b Diamond) int {
		if c := a.Head.Compare(b.Head); c != 0 {
			return c
		}
		return a.Tail.Compare(b.Tail)
	})
	return out
}

func oracleClassifyDiamond(d Diamond, paris *oracleGraph) Cause {
	if paris == nil {
		return CausePerPacketLB
	}
	if mids, ok := paris.triples[[2]netip.Addr{d.Head, d.Tail}]; ok && len(mids) >= 2 {
		return CausePerPacketLB
	}
	return CausePerFlowLB
}

// oracleFindCycles is FindCycles as it was with its two maps.
func oracleFindCycles(rt *tracer.Route) []Cycle {
	hops := rt.Hops
	first := make(map[netip.Addr]int)
	reported := make(map[netip.Addr]bool)
	var out []Cycle
	for i, h := range hops {
		if h.Star() {
			continue
		}
		f, seen := first[h.Addr]
		if !seen {
			first[h.Addr] = i
			continue
		}
		if reported[h.Addr] {
			continue
		}
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
		out = append(out, Cycle{Addr: h.Addr, Dest: rt.Dest, First: f, Second: i, Period: periodOf(hops, f, i)})
		reported[h.Addr] = true
	}
	return out
}

// randomRoutes draws one destination's route set: per-packet-balanced
// variants of one path (each hop answers from one of up to three interfaces,
// drawn per route) mixed with routes over a small address pool, so addresses
// repeat within and across routes; stars land in every position.
func randomRoutes(rng *rand.Rand) []*tracer.Route {
	hops := 3 + rng.Intn(14)
	path := make([][]int, hops)
	for i := range path {
		for k := rng.Intn(3); k >= 0; k-- {
			path[i] = append(path[i], 1+rng.Intn(40))
		}
	}
	starP := rng.Float64() * 0.3
	routes := make([]*tracer.Route, 1+rng.Intn(12))
	for r := range routes {
		balanced := rng.Intn(4) > 0
		n := hops
		if !balanced {
			n = 1 + rng.Intn(hops)
		}
		spec := make([]int, n)
		for i := range spec {
			switch {
			case rng.Float64() < starP:
				spec[i] = -1
			case balanced:
				spec[i] = path[i][rng.Intn(len(path[i]))]
			default:
				spec[i] = 1 + rng.Intn(6)
			}
		}
		routes[r] = mkRoute(spec...)
	}
	return routes
}

// TestGraphMatchesOracle drives the triple index and the map-of-maps graph
// it replaced with the same seeded route sets and demands the same answers:
// diamond sets, ClassifyDiamond verdicts against the paired Paris graph,
// idempotence below Routes, nothing allocated by a re-add — and, for every
// route drawn, FindCycles against its two-map form.
func TestGraphMatchesOracle(t *testing.T) {
	diamonds, perFlow, cycles := 0, 0, 0
	for seed := int64(0); seed < 1500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		classic, paris := randomRoutes(rng), randomRoutes(rng)
		// Half the time the Paris set shares the classic one's routes, so
		// classic diamonds are found again there.
		if rng.Intn(2) == 0 {
			paris = append(paris, classic[:1+rng.Intn(len(classic))]...)
		}
		cg, pg := NewGraph(dst), NewGraph(dst)
		co, po := newOracleGraph(dst), newOracleGraph(dst)
		for _, rt := range classic {
			cg.Add(rt)
			co.add(rt)
		}
		for _, rt := range paris {
			pg.Add(rt)
			po.add(rt)
		}
		for _, rt := range append(classic, paris...) {
			got, want := FindCycles(rt), oracleFindCycles(rt)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: FindCycles(%v) = %+v, oracle %+v", seed, rt.Hops, got, want)
			}
			cycles += len(got)
		}

		got := cg.Diamonds()
		if want := co.diamonds(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: classic diamonds\n got %+v\nwant %+v", seed, got, want)
		}
		if g, w := pg.Diamonds(), po.diamonds(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: paris diamonds\n got %+v\nwant %+v", seed, g, w)
		}
		for _, d := range got {
			if g, w := ClassifyDiamond(d, pg), oracleClassifyDiamond(d, po); g != w {
				t.Fatalf("seed %d: ClassifyDiamond(%v -> %v) = %v, oracle %v", seed, d.Head, d.Tail, g, w)
			} else if g == CausePerFlowLB {
				perFlow++
			}
			if g := ClassifyDiamond(d, nil); g != oracleClassifyDiamond(d, nil) {
				t.Fatalf("seed %d: ClassifyDiamond against no Paris graph = %v", seed, g)
			}
		}
		diamonds += len(got)

		before := slices.Clone(cg.triples)
		readd := func() {
			for _, rt := range classic {
				cg.Add(rt)
			}
		}
		readd()
		if !slices.Equal(cg.triples, before) || cg.Routes != 2*len(classic) {
			t.Fatalf("seed %d: re-adding every route changed the index (Routes %d, want %d)",
				seed, cg.Routes, 2*len(classic))
		}
		// A guard, not a regression pin: re-assigning present map keys did
		// not allocate either.
		if seed%100 == 0 {
			if n := testing.AllocsPerRun(10, readd); n != 0 {
				t.Errorf("seed %d: re-adding routes whose triples are all present allocates %.1f times", seed, n)
			}
		}
	}
	if diamonds < 1000 || perFlow == 0 || perFlow == diamonds || cycles < 1000 {
		t.Fatalf("generator degenerate: %d diamonds (%d per-flow), %d cycles", diamonds, perFlow, cycles)
	}
}

// fifteenHops is a cycle-free route of the usual length.
func fifteenHops() *tracer.Route {
	return mkRoute(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
}

// TestFindCyclesCycleFreeAllocs: the route nearly every first sight analyzes
// has no cycle, and finding that out allocates nothing.
func TestFindCyclesCycleFreeAllocs(t *testing.T) {
	rt := fifteenHops()
	if n := testing.AllocsPerRun(100, func() {
		if len(FindCycles(rt)) != 0 {
			t.Fatal("cycle in a cycle-free route")
		}
	}); n != 0 {
		t.Errorf("FindCycles allocates %.1f times on a cycle-free route", n)
	}
}

// TestGraphAddRefusesUnkeyableAddress: an address the four-byte key cannot
// hold stops Add; it is never folded onto some IPv4 address's key.
func TestGraphAddRefusesUnkeyableAddress(t *testing.T) {
	for _, bad := range []netip.Addr{
		{},
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("::ffff:10.0.0.2"),
		netip.MustParseAddr("fe80::1%eth0"),
	} {
		for pos := 0; pos < 3; pos++ {
			rt := mkRoute(1, 2, 3)
			rt.Hops[pos].Addr = bad
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Add accepted %v at window position %d", bad, pos)
					}
				}()
				NewGraph(dst).Add(rt)
			}()
		}
	}
}

// BenchmarkGraphAdd is the diamond index's share of a fold: a 15-hop route
// merged into an empty graph (first sight), and merged again (what a
// restored or re-added route costs).
func BenchmarkGraphAdd(b *testing.B) {
	rt := fifteenHops()
	b.Run("first-sight", func(b *testing.B) {
		g := NewGraph(dst)
		b.ReportAllocs()
		for b.Loop() {
			*g = Graph{Dest: dst}
			g.Add(rt)
		}
	})
	b.Run("re-add", func(b *testing.B) {
		g := NewGraph(dst)
		g.Add(rt)
		b.ReportAllocs()
		for b.Loop() {
			g.Add(rt)
		}
	})
}
