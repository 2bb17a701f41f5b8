// Benchmark harness: one benchmark per figure and quoted statistic of the
// paper, plus ablations of the design choices the paper argues for.
// (Fig. 2's header-role table is generated by test code of its own, so its
// benchmark sits with it in internal/tracer/fig2_test.go.)
//
// Statistic-bearing benchmarks attach their measured values as custom
// metrics (b.ReportMetric), so `go test -bench=. -benchmem` regenerates the
// paper's numbers alongside the timing data; the values they are compared
// with are the paper column of the study's report (internal/measure/report.go).
package repro

import (
	"io"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/flow"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// --- Figures ---

// BenchmarkFig1MissingNodes reproduces Section 2.1's missing-node analysis:
// classic probing through a random two-way balancer with three probes per
// hop. Metrics: p_miss_hop7 (paper: 0.25) and p_ambiguous (paper: 0.9375).
func BenchmarkFig1MissingNodes(b *testing.B) {
	fig := topo.BuildFigure1(99, netsim.PerPacket)
	tp := netsim.NewTransport(fig.Net)
	missed, ambiguous := 0, 0
	for i := 0; i < b.N; i++ {
		tr := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 12, ProbesPerHop: 3})
		rt, err := tr.Trace(fig.Dest.Addr)
		if err != nil {
			b.Fatal(err)
		}
		h7, h8 := distinct(rt.All[6]), distinct(rt.All[7])
		if h7 == 1 {
			missed++
		}
		if h7 == 2 || h8 == 2 {
			ambiguous++
		}
	}
	b.ReportMetric(float64(missed)/float64(b.N), "p_miss_hop7")
	b.ReportMetric(float64(ambiguous)/float64(b.N), "p_ambiguous")
}

// BenchmarkFig3LoopLB measures how often classic traceroute sees the Fig. 3
// loop versus Paris. Metrics: classic_loop_rate (expected ~0.25 for the
// two-way unequal diamond) and paris_loop_rate (expected 0).
func BenchmarkFig3LoopLB(b *testing.B) {
	fig := topo.BuildFigure3(1)
	tp := netsim.NewTransport(fig.Net)
	classicLoops, parisLoops := 0, 0
	for i := 0; i < b.N; i++ {
		crt, err := tracer.NewClassicUDP(tp, tracer.Options{
			SrcPort: uint16(32768 + i%30000), MaxTTL: 15,
		}).Trace(fig.Dest.Addr)
		if err != nil {
			b.Fatal(err)
		}
		if len(anomaly.FindLoops(crt)) > 0 {
			classicLoops++
		}
		prt, err := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 15}).Trace(fig.Dest.Addr)
		if err != nil {
			b.Fatal(err)
		}
		if len(anomaly.FindLoops(prt)) > 0 {
			parisLoops++
		}
	}
	b.ReportMetric(float64(classicLoops)/float64(b.N), "classic_loop_rate")
	b.ReportMetric(float64(parisLoops)/float64(b.N), "paris_loop_rate")
}

// BenchmarkFig4ZeroTTL traces through the zero-TTL-forwarding topology and
// verifies the diagnostic loop every time. Metric: zero_ttl_loop_rate
// (expected 1.0 — the misbehaviour is deterministic).
func BenchmarkFig4ZeroTTL(b *testing.B) {
	fig := topo.BuildFigure4(1)
	tp := netsim.NewTransport(fig.Net)
	hits := 0
	for i := 0; i < b.N; i++ {
		rt, err := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 15}).Trace(fig.Dest.Addr)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range anomaly.ClassifyPair(rt, rt).LoopCauses {
			if c == anomaly.CauseZeroTTL {
				hits++
			}
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "zero_ttl_loop_rate")
}

// BenchmarkFig5NAT traces into the NAT stub and verifies the address-
// rewriting classification. Metric: rewriting_loop_rate (expected 1.0).
func BenchmarkFig5NAT(b *testing.B) {
	fig := topo.BuildFigure5(1)
	tp := netsim.NewTransport(fig.Net)
	hits := 0
	for i := 0; i < b.N; i++ {
		rt, err := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 15}).Trace(fig.Dest.Addr)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range anomaly.ClassifyPair(rt, rt).LoopCauses {
			if c == anomaly.CauseAddressRewriting {
				hits++
			}
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "rewriting_loop_rate")
}

// BenchmarkFig6Diamonds builds per-destination graphs from repeated traces
// through the three-way balancer. Metrics: classic_diamonds and
// paris_diamonds per 32-round graph (paper: diamonds appear in classic
// graphs and vanish from Paris ones).
func BenchmarkFig6Diamonds(b *testing.B) {
	fig := topo.BuildFigure6(1, netsim.PerFlow)
	tp := netsim.NewTransport(fig.Net)
	var classicD, parisD int
	for i := 0; i < b.N; i++ {
		cg := anomaly.NewGraph(fig.Dest.Addr)
		pg := anomaly.NewGraph(fig.Dest.Addr)
		for r := 0; r < 32; r++ {
			crt, err := tracer.NewClassicUDP(tp, tracer.Options{
				SrcPort: uint16(32768 + (i*32+r)%30000), MaxTTL: 15,
			}).Trace(fig.Dest.Addr)
			if err != nil {
				b.Fatal(err)
			}
			cg.Add(crt)
			prt, err := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 15}).Trace(fig.Dest.Addr)
			if err != nil {
				b.Fatal(err)
			}
			pg.Add(prt)
		}
		classicD += len(cg.Diamonds())
		parisD += len(pg.Diamonds())
	}
	b.ReportMetric(float64(classicD)/float64(b.N), "classic_diamonds")
	b.ReportMetric(float64(parisD)/float64(b.N), "paris_diamonds")
}

// --- Campaign statistics (Sections 3, 4.1.2, 4.2.2, 4.3.2) ---

// campaignStats runs a calibrated mid-scale campaign once and caches it;
// the statistics benchmarks report their slices of it.
var campaignCache *measure.Stats

func campaignStats(b *testing.B) *measure.Stats {
	b.Helper()
	if campaignCache != nil {
		return campaignCache
	}
	cfg := topo.DefaultGenConfig()
	cfg.Destinations = 1000
	sc := topo.Generate(cfg)
	camp, err := measure.NewCampaign(netsim.NewTransport(sc.Net), measure.Config{
		Dests:      sc.Dests,
		Rounds:     20,
		Workers:    32,
		RoundStart: sc.RoundStart,
		PortSeed:   cfg.Seed,
		Stream:     true,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		b.Fatal(err)
	}
	campaignCache = res.Stats
	return campaignCache
}

// BenchmarkLoopStatistics reports the Section 4.1.2 table. Paper values:
// routes 5.3%, per-flow 87%, zero-TTL 6.9%, unreachability 1.2%,
// rewriting 2.8%, residual 2.5%.
func BenchmarkLoopStatistics(b *testing.B) {
	s := campaignStats(b)
	for i := 0; i < b.N; i++ {
		measure.WriteReport(io.Discard, s, nil)
	}
	b.ReportMetric(pct(s.Loops.RoutesWithLoop, s.Routes), "loop_routes_pct")
	b.ReportMetric(measure.CausePct(s.Loops.ByCause, anomaly.CausePerFlowLB), "perflow_pct")
	b.ReportMetric(measure.CausePct(s.Loops.ByCause, anomaly.CauseZeroTTL), "zerottl_pct")
	b.ReportMetric(measure.CausePct(s.Loops.ByCause, anomaly.CauseUnreachability), "unreach_pct")
	b.ReportMetric(measure.CausePct(s.Loops.ByCause, anomaly.CauseAddressRewriting), "rewrite_pct")
	b.ReportMetric(measure.CausePct(s.Loops.ByCause, anomaly.CausePerPacketLB), "residual_pct")
}

// BenchmarkCycleStatistics reports the Section 4.2.2 table. Paper values:
// routes 0.84%, per-flow 78%, forwarding loops 20%, unreachability 1.2%.
func BenchmarkCycleStatistics(b *testing.B) {
	s := campaignStats(b)
	for i := 0; i < b.N; i++ {
		measure.WriteReport(io.Discard, s, nil)
	}
	b.ReportMetric(pct(s.Cycles.RoutesWithCycle, s.Routes), "cycle_routes_pct")
	b.ReportMetric(measure.CausePct(s.Cycles.ByCause, anomaly.CausePerFlowLB), "perflow_pct")
	b.ReportMetric(measure.CausePct(s.Cycles.ByCause, anomaly.CauseForwardingLoop), "fwdloop_pct")
	b.ReportMetric(measure.CausePct(s.Cycles.ByCause, anomaly.CauseUnreachability), "unreach_pct")
}

// BenchmarkDiamondStatistics reports the Section 4.3.2 table. Paper values:
// destinations 79%, per-flow share 64%.
func BenchmarkDiamondStatistics(b *testing.B) {
	s := campaignStats(b)
	for i := 0; i < b.N; i++ {
		measure.WriteReport(io.Discard, s, nil)
	}
	b.ReportMetric(pct(s.Diamonds.DestsWithDiamond, s.Dests), "diamond_dests_pct")
	b.ReportMetric(pct(s.Diamonds.PerFlow, s.Diamonds.Total), "perflow_pct")
	b.ReportMetric(float64(s.Diamonds.Total), "diamonds_total")
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// --- Ablations ---

// BenchmarkAblationFlowKey contrasts the paper's observed router behaviour
// (hash the first four transport octets) with the textbook five-tuple:
// classic UDP anomalies are identical, but ICMP behaves differently because
// the five-tuple has no ports to hash. Metrics: loop rates under each key.
func BenchmarkAblationFlowKey(b *testing.B) {
	run := func(kind flow.KeyKind) float64 {
		fig := topo.BuildFigure3(1)
		// Re-balance L's routes with the ablated key kind.
		if r, ok := fig.Net.RouterAt(fig.L); ok {
			rts := r.Routes()
			for i := range rts {
				if len(rts[i].Hops) > 1 {
					rts[i].FlowOpts = flow.Options{Kind: kind}
				}
			}
			r.SetRoutes(rts)
		}
		tp := netsim.NewTransport(fig.Net)
		loops := 0
		for i := 0; i < b.N; i++ {
			rt, err := tracer.NewClassicICMP(tp, tracer.Options{
				ICMPID: uint16(1 + i%30000), MaxTTL: 15,
			}).Trace(fig.Dest.Addr)
			if err != nil {
				b.Fatal(err)
			}
			if len(anomaly.FindLoops(rt)) > 0 {
				loops++
			}
		}
		return float64(loops) / float64(b.N)
	}
	b.ReportMetric(run(flow.KeyFirstFourOctets), "icmp_loop_rate_first4")
	b.ReportMetric(run(flow.KeyFiveTuple), "icmp_loop_rate_5tuple")
}

// BenchmarkAblationParisVsClassic measures the headline effect on one
// unequal diamond: loop rate with checksum-varying probes (Paris) versus
// port-varying probes (classic).
func BenchmarkAblationParisVsClassic(b *testing.B) {
	fig := topo.BuildFigure3(1)
	tp := netsim.NewTransport(fig.Net)
	classic, paris := 0, 0
	for i := 0; i < b.N; i++ {
		crt, err := tracer.NewClassicUDP(tp, tracer.Options{
			SrcPort: uint16(32768 + i%30000), MaxTTL: 15,
		}).Trace(fig.Dest.Addr)
		if err != nil {
			b.Fatal(err)
		}
		if len(anomaly.FindLoops(crt)) > 0 {
			classic++
		}
		prt, err := tracer.NewParisUDP(tp, tracer.Options{
			SrcPort: uint16(10000 + i%30000), MaxTTL: 15,
		}).Trace(fig.Dest.Addr)
		if err != nil {
			b.Fatal(err)
		}
		if len(anomaly.FindLoops(prt)) > 0 {
			paris++
		}
	}
	b.ReportMetric(float64(classic)/float64(b.N), "classic_loop_rate")
	b.ReportMetric(float64(paris)/float64(b.N), "paris_loop_rate")
}

// BenchmarkAblationProbesPerHop contrasts one and three probes per hop on
// diamond formation through the Fig. 6 balancer (Section 4.3: diamonds
// "can only arise if probing involves multiple probes per hop" — or
// repeated measurements).
func BenchmarkAblationProbesPerHop(b *testing.B) {
	fig := topo.BuildFigure6(1, netsim.PerFlow)
	tp := netsim.NewTransport(fig.Net)
	run := func(probes int) float64 {
		diamonds := 0
		for i := 0; i < b.N; i++ {
			g := anomaly.NewGraph(fig.Dest.Addr)
			rt, err := tracer.NewClassicUDP(tp, tracer.Options{
				SrcPort: uint16(32768 + i%30000), MaxTTL: 15, ProbesPerHop: probes,
			}).Trace(fig.Dest.Addr)
			if err != nil {
				b.Fatal(err)
			}
			if probes == 1 {
				g.Add(rt)
			} else {
				// With multiple probes per hop, every attempt
				// contributes a measured route.
				for a := 0; a < probes; a++ {
					sub := &tracer.Route{Dest: rt.Dest}
					for _, attempts := range rt.All {
						if a < len(attempts) {
							sub.Hops = append(sub.Hops, attempts[a])
						}
					}
					g.Add(sub)
				}
			}
			diamonds += len(g.Diamonds())
		}
		return float64(diamonds) / float64(b.N)
	}
	b.ReportMetric(run(1), "diamonds_1probe")
	b.ReportMetric(run(3), "diamonds_3probes")
}

// BenchmarkAblationPerPacket contrasts per-flow and per-packet balancers
// under Paris probing: per-flow anomalies vanish, per-packet residue stays.
func BenchmarkAblationPerPacket(b *testing.B) {
	run := func(policy netsim.Policy) float64 {
		fig := buildFig3Policy(policy)
		tp := netsim.NewTransport(fig.Net)
		loops := 0
		for i := 0; i < b.N; i++ {
			rt, err := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 15}).Trace(fig.Dest.Addr)
			if err != nil {
				b.Fatal(err)
			}
			if len(anomaly.FindLoops(rt)) > 0 {
				loops++
			}
		}
		return float64(loops) / float64(b.N)
	}
	b.ReportMetric(run(netsim.PerFlow), "paris_loops_perflow_lb")
	b.ReportMetric(run(netsim.PerPacket), "paris_loops_perpacket_lb")
}

func buildFig3Policy(policy netsim.Policy) *topo.Figure3 {
	if policy == netsim.PerPacket {
		return topo.BuildFigure3PerPacket(1)
	}
	return topo.BuildFigure3(1)
}

// --- Microbenchmarks of the hot paths ---

// BenchmarkSingleTrace times one Paris traceroute through a generated
// topology end to end (probe building, simulated forwarding, response
// parsing, matching).
func BenchmarkSingleTrace(b *testing.B) {
	cfg := topo.DefaultGenConfig()
	cfg.Destinations = 100
	sc := topo.Generate(cfg)
	tp := netsim.NewTransport(sc.Net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := tracer.NewParisUDP(tp, tracer.Options{MinTTL: 2, MaxTTL: 39})
		if _, err := tr.Trace(sc.Dests[i%len(sc.Dests)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnomalyDetection times loop+cycle detection over a route.
func BenchmarkAnomalyDetection(b *testing.B) {
	fig := topo.BuildFigure3(1)
	tp := netsim.NewTransport(fig.Net)
	rt, err := tracer.NewClassicUDP(tp, tracer.Options{MaxTTL: 15}).Trace(fig.Dest.Addr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		anomaly.FindLoops(rt)
		anomaly.FindCycles(rt)
	}
}
