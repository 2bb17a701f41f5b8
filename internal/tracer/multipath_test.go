package tracer_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

var fig15 = tracer.Options{MaxTTL: 15}

func TestEnumeratePathsFindsAllBranches(t *testing.T) {
	fig := topo.BuildFigure6(1, netsim.PerFlow)
	ps, err := tracer.EnumeratePaths(netsim.NewTransport(fig.Net), fig15, fig.Dest.Addr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Distinct() != 3 {
		t.Errorf("distinct paths = %d, want 3", ps.Distinct())
	}
	// Hop 7 (branch heads) and hop 8 (mids) must expose all interfaces.
	heads := ps.InterfacesPerHop[6]
	mids := ps.InterfacesPerHop[7]
	if len(heads) != 3 || len(mids) != 3 {
		t.Errorf("hop7=%v hop8=%v, want 3 each", heads, mids)
	}
	for _, want := range fig.BranchHeads {
		found := false
		for _, got := range heads {
			if got == want {
				found = true
			}
		}
		if !found {
			t.Errorf("branch head %v not enumerated (got %v)", want, heads)
		}
	}
	// The convergence point stays single.
	if g := ps.InterfacesPerHop[8]; len(g) != 1 || g[0] != fig.G {
		t.Errorf("hop9 = %v, want only G=%v", g, fig.G)
	}
}

func TestEnumeratePathsSinglePathNetwork(t *testing.T) {
	fig := topo.BuildFigure4(1) // plain chain (plus the zero-TTL quirk)
	ps, err := tracer.EnumeratePaths(netsim.NewTransport(fig.Net), fig15, fig.Dest.Addr, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Distinct() != 1 {
		t.Errorf("distinct paths = %d, want 1", ps.Distinct())
	}
}

func TestClassifyBalancerPerFlow(t *testing.T) {
	fig := topo.BuildFigure6(1, netsim.PerFlow)
	kind, err := tracer.ClassifyBalancer(netsim.NewTransport(fig.Net), fig15, fig.Dest.Addr, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if kind != tracer.BalancerPerFlow {
		t.Errorf("kind = %v, want per-flow", kind)
	}
}

func TestClassifyBalancerPerPacket(t *testing.T) {
	fig := topo.BuildFigure6(1, netsim.PerPacket)
	kind, err := tracer.ClassifyBalancer(netsim.NewTransport(fig.Net), fig15, fig.Dest.Addr, 32, 6)
	if err != nil {
		t.Fatal(err)
	}
	if kind != tracer.BalancerPerPacket {
		t.Errorf("kind = %v, want per-packet", kind)
	}
}

func TestClassifyBalancerNone(t *testing.T) {
	fig := topo.BuildFigure5(1) // chain + NAT, no balancer
	kind, err := tracer.ClassifyBalancer(netsim.NewTransport(fig.Net), fig15, fig.Dest.Addr, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if kind != tracer.BalancerNone {
		t.Errorf("kind = %v, want none", kind)
	}
}

func TestBalancerKindStrings(t *testing.T) {
	for _, k := range []tracer.BalancerKind{tracer.BalancerNone, tracer.BalancerPerFlow, tracer.BalancerPerPacket} {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", int(k))
		}
	}
}
