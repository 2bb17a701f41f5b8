package netsim_test

import (
	"net/netip"
	"testing"

	"repro/internal/costs"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// TestRouteHeapBudget reads netsim's heap rows of testdata/costs.txt.
//
// route-heap is what a forwarding table costs per route: the live heap that
// 10,000 single-hop /32 host routes and a few balanced prefixes add to one
// router of the line, once one exchange has compiled its table — the shape
// of a campaign core router, which carries one host route per destination.
// The hosts are registered before the baseline, so only the table counts: a
// 12-byte entry with the append slack of a growing table, and the
// snapshot's 4-byte next-hop node id and 4-byte host index. A route kept as
// a netsim.Route (72 bytes, plus its own []NextHop backing) read 115.
//
// topology-heap is the live heap of a generated topology per destination,
// at 1,000 destinations of the topology the binaries run, before any
// exchange compiles a table: routers, hosts, the node registry and the
// stored routes. topology-allocs is what building it allocates, per
// destination: its garbage as well as what it keeps.
func TestRouteHeapBudget(t *testing.T) {
	rows := costs.Rows{}
	const hosts = 10000
	rows.Heap("netsim/route-heap", hosts+4, func(mark func()) any {
		l := newLine(23)
		dest := func(i int) netip.Addr { return ip4(172, 17, byte(i>>8), byte(i)) }
		for i := range hosts {
			l.net.AttachHost(netsim.NewHost("d", dest(i)), lineIf(4))
		}
		probe := [][]byte{mkProbe(t, probeUDP, lineSrc, lineHost, 64, 7)}
		out := make([]tracer.ProbeResult, 1)
		l.net.ExchangeBatch(probe, out) // compiles r1's table as it stands
		mark()
		r1 := l.rs[1]
		for i := range hosts {
			r1.AddRoute(netsim.Route{Prefix: host32(dest(i)), Hops: via1(lineIf(3))})
		}
		for i := byte(0); i < 4; i++ {
			r1.AddRoute(netsim.Route{
				Prefix:  netip.PrefixFrom(ip4(172, 18, i, 0), 24),
				Hops:    []netsim.NextHop{{Via: lineIf(3)}, {Via: lineIf(1)}, {Via: ip4(10, 9, 9, i)}},
				Balance: netsim.Policy(i % 3),
			})
		}
		l.net.ExchangeBatch(probe, out)
		if !out[0].OK {
			t.Fatal("the probe through the grown table went unanswered")
		}
		return l
	})

	cfg := topo.DefaultGenConfig()
	cfg.Destinations = 1000
	rows.Heap("netsim/topology-heap", cfg.Destinations, func(mark func()) any {
		mark()
		return topo.Generate(cfg)
	})
	generate := func() { topo.Generate(cfg) }
	rows.Allocs("netsim/topology-allocs", cfg.Destinations, generate, generate)
	rows.Check(t)
}

// TestWalkStepBudget reads the rows netsim/walk-allocs-static and
// netsim/walk-allocs-dynamics of testdata/costs.txt: a warmed 16-probe batch
// with the virtual-clock dynamics off and on. One path, and nothing on it
// touches the heap.
func TestWalkStepBudget(t *testing.T) {
	rows := costs.Rows{}
	for _, dynamics := range []string{"static", "dynamics"} {
		l := newLine(19)
		if dynamics == "dynamics" {
			l.net.SetDynamics(netsim.Dynamics{Seed: 19, Delay: 1, Load: 0.3, Churn: 0.5})
		}
		probes := ladderBatch(t, lineSrc, lineHost)
		out := make([]tracer.ProbeResult, len(probes))
		l.net.ExchangeBatch(probes, out)
		for i, r := range out {
			if !r.OK || r.RTT <= 0 {
				t.Fatalf("%s: probe %d answered %v with RTT %v", dynamics, i, r.OK, r.RTT)
			}
		}
		batch := func() { l.net.ExchangeBatch(probes, out) }
		rows.Allocs("netsim/walk-allocs-"+dynamics, 200, batch, func() {
			for range 200 {
				batch()
			}
		})
	}
	rows.Check(t)
}
