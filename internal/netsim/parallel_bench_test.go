package netsim_test

// Microbenchmarks of the forwarding engine itself (no tracer overhead).
// BenchmarkExchangeParallel is the headline for the concurrent-engine work:
// under the old global network lock its throughput was flat in the number
// of senders; now it must scale with GOMAXPROCS.

import (
	"sync/atomic"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// benchProbes builds one mid-trace UDP probe (TTL 6: expires in the pod,
// exercising TTL patching, ICMP quoting, and the return path) per
// destination of a generated campaign topology.
func benchProbes(b *testing.B) (*netsim.Network, [][]byte) {
	b.Helper()
	cfg := topo.DefaultGenConfig()
	cfg.Destinations = 200
	sc := topo.Generate(cfg)
	probes := make([][]byte, len(sc.Dests))
	for i, d := range sc.Dests {
		dgram, err := packet.MarshalUDPInto(nil, sc.Source, d, &packet.UDP{
			SrcPort: uint16(10000 + i), DstPort: 33435,
		}, make([]byte, 12))
		if err != nil {
			b.Fatal(err)
		}
		pkt, err := (&packet.IPv4{
			TTL: 6, Protocol: packet.ProtoUDP, Src: sc.Source, Dst: d,
		}).MarshalInto(nil, dgram)
		if err != nil {
			b.Fatal(err)
		}
		probes[i] = pkt
	}
	return sc.Net, probes
}

// BenchmarkExchange is the serial baseline for BenchmarkExchangeParallel.
func BenchmarkExchange(b *testing.B) {
	net, probes := benchProbes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Exchange(probes[i%len(probes)])
	}
}

// BenchmarkExchangeParallel drives Exchange from GOMAXPROCS goroutines over
// one shared Network, the access pattern of the paper's 32 parallel
// measurement processes.
func BenchmarkExchangeParallel(b *testing.B) {
	net, probes := benchProbes(b)
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := ctr.Add(1)
			net.Exchange(probes[int(i)%len(probes)])
		}
	})
}

// BenchmarkExchangeLadder is the walk as the study drives it: one 16-probe
// TTL ladder per ExchangeBatch, toward rotating destinations of a
// 500-destination campaign topology with its first round's flip schedules
// published, dynamics off or on. Both shortcuts run either way: with
// dynamics on, a skipped hop still charges its link and re-checks the
// probe's flap, rotation and brownout draws, so the difference between the
// two is the dynamics layer itself. ns/probe is the per-probe cost;
// allocs/op must stay 0 (TestWalkStepBudget).
func BenchmarkExchangeLadder(b *testing.B) {
	for _, dynamics := range []string{"off", "on"} {
		b.Run("dynamics="+dynamics, func(b *testing.B) {
			cfg := topo.DefaultGenConfig()
			if dynamics == "on" {
				cfg.Delay, cfg.Load, cfg.Churn = 1, 0.3, 0.5
			}
			sc := topo.Generate(cfg)
			sc.RoundStart(0)
			ladders := make([][][]byte, len(sc.Dests))
			for i, d := range sc.Dests {
				ladders[i] = ladderBatch(b, sc.Source, d)
			}
			out := make([]tracer.ProbeResult, 16)
			for _, l := range ladders { // compile every table, size every buffer
				sc.Net.ExchangeBatch(l, out)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Net.ExchangeBatch(ladders[i%len(ladders)], out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*16), "ns/probe")
		})
	}
}
