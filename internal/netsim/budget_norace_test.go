//go:build !race

package netsim_test

import (
	"net/netip"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/netsim"
	"repro/internal/tracer"
)

// routeHeapBudget is TestRouteHeapBudget's ceiling, bytes of live heap per
// installed route, stored entry and compiled snapshot together. The reading
// is 22: a 12-byte entry with the append slack of a growing table, and the
// snapshot's 4-byte next-hop node id and 4-byte host index. A route kept as
// a netsim.Route (72 bytes, plus its own []NextHop backing) read 115.
const routeHeapBudget = 24

// heapLive is what the heap holds once everything unreachable is gone: two
// collections, because a sync.Pool gives up its contents only over two.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestRouteHeapBudget pins what a forwarding table costs per route: the
// live heap that 10,000 single-hop /32 host routes and a few balanced
// prefixes add to one router of the line, once one exchange has compiled
// its table — the shape of a campaign core router, which carries one host
// route per destination. The hosts are registered before the baseline, so
// only the table is counted. It lives on the !race side of the budget split:
// the race detector's shadow allocations are not the program's.
func TestRouteHeapBudget(t *testing.T) {
	const hosts = 10000
	l := newLine(23)
	dest := func(i int) netip.Addr { return ip4(172, 17, byte(i>>8), byte(i)) }
	for i := range hosts {
		l.net.AttachHost(netsim.NewHost("d", dest(i)), lineIf(4))
	}
	probe := [][]byte{mkProbe(t, probeUDP, lineSrc, lineHost, 64, 7)}
	out := make([]tracer.ProbeResult, 1)
	l.net.ExchangeBatch(probe, out) // compiles r1's table as it stands
	r1 := l.rs[1]
	heapLive() // the first reading after start-up can trail the settled one
	before := heapLive()
	for i := range hosts {
		r1.AddRoute(netsim.Route{Prefix: host32(dest(i)), Hops: via1(lineIf(3))})
	}
	routes := hosts
	for i := byte(0); i < 4; i++ {
		r1.AddRoute(netsim.Route{
			Prefix:  netip.PrefixFrom(ip4(172, 18, i, 0), 24),
			Hops:    []netsim.NextHop{{Via: lineIf(3)}, {Via: lineIf(1)}, {Via: ip4(10, 9, 9, i)}},
			Balance: netsim.Policy(i % 3),
		})
		routes++
	}
	l.net.ExchangeBatch(probe, out)
	if !out[0].OK {
		t.Fatal("the probe through the grown table went unanswered")
	}
	after := heapLive()
	runtime.KeepAlive(r1)
	perRoute := (int64(after) - int64(before)) / int64(routes)
	t.Logf("%d bytes of live heap per route (%d routes)", perRoute, routes)
	if perRoute > routeHeapBudget {
		t.Errorf("%d bytes of live heap per route, budget %d", perRoute, routeHeapBudget)
	}
}
