package tracer

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/costs"
)

// nullTransport answers a ladder from a table recorded beforehand, indexed by
// probe TTL, without allocating: the tracer's own cost with the network
// taken out. A tracer re-aimed the same way sends the same bytes at each TTL
// every trace, so the recorded quotes keep matching.
type nullTransport struct {
	answers [64][]byte
}

func (n *nullTransport) Source() netip.Addr { return tSrc }

func (n *nullTransport) ExchangeBatch(probes [][]byte, out []ProbeResult) {
	for i, p := range probes {
		resp := n.answers[p[8]]
		out[i] = ProbeResult{Resp: append(out[i].Resp[:0], resp...), RTT: time.Millisecond, OK: resp != nil}
	}
}

// recordNull traces once over a scripted chain of pathLen hops with the tracer
// mk builds and returns the answers as a nullTransport.
func recordNull(t *testing.T, mk func(Transport, Options) Tracer, opts Options, pathLen int) *nullTransport {
	t.Helper()
	chain := scriptedChain(t, pathLen)
	if _, err := mk(chain, opts).Trace(tDest); err != nil {
		t.Fatal(err)
	}
	null := &nullTransport{}
	for i, p := range chain.probes {
		null.answers[p[8]] = chain.respond(i, p)
	}
	return null
}

// TestCosts reads tracer's row of testdata/costs.txt: trace-allocs is the
// budget the Scratch comment promises, that a reused tracer whose routes
// come back through Recycle allocates nothing per trace, Batch on or off,
// Paris or classic (the most of the four). The route it refills must be the
// route a fresh trace would have returned.
func TestCosts(t *testing.T) {
	rows := costs.Rows{}
	const pathLen = 11
	for _, tc := range []struct {
		name string
		mk   func(Transport, Options) Tracer
	}{
		{"paris-udp", NewParisUDP},
		{"classic-udp", NewClassicUDP},
	} {
		for _, batch := range []bool{true, false} {
			opts := Options{MinTTL: 2, MaxTTL: 39, SrcPort: 40001, DstPort: 40002}
			tp := recordNull(t, tc.mk, opts, pathLen)
			want, err := tc.mk(tp, opts).Trace(tDest)
			if err != nil {
				t.Fatal(err)
			}
			if want.Halt != HaltDestination || len(want.Hops) != pathLen-1 {
				t.Fatalf("%s: reference trace: %d hops, halt %v", tc.name, len(want.Hops), want.Halt)
			}

			opts.Batch = batch
			opts.Scratch = NewScratch()
			tr := tc.mk(tp, opts)
			var got *Route
			trace := func() {
				tr.Aim(40001, 40002, len(want.Hops))
				rt, err := tr.Trace(tDest)
				if err != nil {
					t.Fatal(err)
				}
				got = rt
				opts.Scratch.Recycle(rt)
			}
			worst := rows["tracer/trace-allocs"]
			// trace warms the Scratch: buffers grown, one route in the pool.
			rows.Allocs("tracer/trace-allocs", 100, trace, func() {
				for range 100 {
					trace()
				}
			})
			rows["tracer/trace-allocs"] = max(worst, rows["tracer/trace-allocs"])
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s batch=%v: recycled route differs from a fresh trace\ngot:  %+v\nwant: %+v", tc.name, batch, got, want)
			}
		}
	}
	rows.Check(t)
}

// TestScratchRecycle pins what Recycle does to the routes around it: a
// recycled route is the next trace's route, scribbled-over contents and a
// too-small hop slice included; a caller that never recycles gets a new
// route every trace; a route carrying an All table is never reused.
func TestScratchRecycle(t *testing.T) {
	const pathLen = 9
	null := recordNull(t, NewParisUDP, Options{MaxTTL: 20}, pathLen)
	want, err := NewParisUDP(null, Options{MaxTTL: 20}).Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxTTL: 20, Batch: true, Scratch: NewScratch()}
	tr := NewParisUDP(null, opts)

	tr.Aim(0, 0, 3) // a hint shorter than the path: the hop slice must grow
	first, err := tr.Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tr.Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if first == second || &first.Hops[0] == &second.Hops[0] {
		t.Fatal("two traces with no Recycle between them share a route")
	}
	if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(second, want) {
		t.Fatalf("hinted traces differ from the reference:\n%+v\n%+v\nwant %+v", first, second, want)
	}

	// Poison, recycle, retrace: the same object comes back, rewritten whole.
	poison := Hop{TTL: -7, Addr: netip.MustParseAddr("255.255.255.255"), RTT: -1, Kind: KindTCPSynAck, Mismatched: true}
	hops := first.Hops[:cap(first.Hops)]
	for i := range hops {
		hops[i] = poison
	}
	*first = Route{Dest: poison.Addr, Source: poison.Addr, Halt: HaltStars, Hops: hops[:2]}
	opts.Scratch.Recycle(first)
	opts.Scratch.Recycle(nil)
	third, err := tr.Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if third != first {
		t.Error("the recycled route was not the next trace's route")
	}
	if !reflect.DeepEqual(third, want) || !reflect.DeepEqual(second, want) {
		t.Errorf("trace into a poisoned recycled route:\ngot  %+v\nwant %+v", third, want)
	}

	// ProbesPerHop > 1: All aliases a per-trace backing array, so the route
	// is left alone by Recycle and stays valid afterwards.
	opts3 := Options{MaxTTL: 20, ProbesPerHop: 3, Batch: true, Scratch: NewScratch()}
	tr3 := NewParisUDP(scriptedChain(t, pathLen), opts3)
	a, err := tr3.Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	keep := a.Clone()
	opts3.Scratch.Recycle(a)
	b, err := tr3.Trace(tDest)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("a route with an All table was reused")
	}
	if !reflect.DeepEqual(a, keep) {
		t.Error("a route with an All table changed after Recycle")
	}
}

// TestAim checks that a re-aimed tracer sends what a tracer constructed with
// those ports sends, and that zero ports select the engine's defaults.
func TestAim(t *testing.T) {
	for _, mk := range []func(Transport, Options) Tracer{NewParisUDP, NewClassicUDP, NewParisTCP, NewTCPTraceroute} {
		for _, ports := range [][2]uint16{{41000, 42000}, {0, 0}, {43000, 0}} {
			fresh := scriptedChain(t, 4)
			if _, err := mk(fresh, Options{MaxTTL: 8, SrcPort: ports[0], DstPort: ports[1]}).Trace(tDest); err != nil {
				t.Fatal(err)
			}
			aimed := scriptedChain(t, 4)
			tr := mk(aimed, Options{MaxTTL: 8, SrcPort: 50000, DstPort: 50001})
			if _, err := tr.Trace(tDest); err != nil {
				t.Fatal(err)
			}
			aimed.probes = nil
			tr.Aim(ports[0], ports[1], 0)
			if _, err := tr.Trace(tDest); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(aimed.probes, fresh.probes) {
				t.Errorf("%s aimed at %v sends other probes than one built with those ports", tr.Name(), ports)
			}
		}
	}
}

// TestRouteClone checks Clone is deep and exact-size, All table included.
func TestRouteClone(t *testing.T) {
	for _, probes := range []int{1, 3} {
		rt, err := NewParisUDP(scriptedChain(t, 6), Options{MaxTTL: 20, ProbesPerHop: probes}).Trace(tDest)
		if err != nil {
			t.Fatal(err)
		}
		c := rt.Clone()
		if !reflect.DeepEqual(c, rt) {
			t.Fatalf("probes=%d: clone differs:\n%+v\n%+v", probes, c, rt)
		}
		if cap(c.Hops) != len(c.Hops) {
			t.Errorf("probes=%d: clone's Hops cap %d, len %d", probes, cap(c.Hops), len(c.Hops))
		}
		for i := range rt.Hops {
			rt.Hops[i] = Hop{}
		}
		for _, row := range rt.All {
			for i := range row {
				row[i] = Hop{}
			}
		}
		if c.Hops[0].TTL == 0 || (probes > 1 && (len(c.All) != len(c.Hops) || c.All[0][0].TTL == 0)) {
			t.Errorf("probes=%d: clone shares memory with its source", probes)
		}
	}
}
