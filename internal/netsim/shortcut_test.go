package netsim_test

// The walk's two shortcuts — resuming a probe on its destination's forward
// ladder, replaying a reply from its originator's return memo — must be
// invisible: every exchange equal, byte for byte and IP IDs included, to the
// plain walk of the same probe on a twin network.

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// exchange is one probe/response exchange as the walk reported it.
type exchange struct {
	probe, resp []byte
	steps       int
	rtt         time.Duration
	ok          bool
}

// logTransport is a tracer.Transport over one Network that keeps every
// exchange it makes.
type logTransport struct {
	net *netsim.Network
	log []exchange
}

func (t *logTransport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	steps := make([]int, len(probes))
	t.net.ExchangeSteps(probes, out, steps)
	for i, r := range out[:len(probes)] {
		t.log = append(t.log, exchange{bytes.Clone(probes[i]), bytes.Clone(r.Resp), steps[i], r.RTT, r.OK})
	}
}

func (t *logTransport) Source() netip.Addr { return t.net.Source() }

// sameExchanges fails at the first exchange the shortcut walk made
// differently from the plain one.
func sameExchanges(t *testing.T, plain, short []exchange) {
	t.Helper()
	if len(plain) != len(short) {
		t.Fatalf("plain walk made %d exchanges, shortcut walk %d", len(plain), len(short))
	}
	for i, p := range plain {
		s := short[i]
		if !bytes.Equal(p.probe, s.probe) || !bytes.Equal(p.resp, s.resp) || p.steps != s.steps || p.rtt != s.rtt || p.ok != s.ok {
			t.Fatalf("exchange %d of %d differs\nprobe %x\nplain:    ok=%v steps=%d rtt=%v %x\nshortcut: ok=%v steps=%d rtt=%v %x",
				i, len(plain), p.probe, p.ok, p.steps, p.rtt, p.resp, s.ok, s.steps, s.rtt, s.resp)
		}
	}
}

// studyExchanges runs a one-worker, four-round campaign over a fresh copy
// of g, through a FaultTransport when plan is set, and returns every
// exchange that reached the network, with the shortcuts' handovers.
func studyExchanges(t *testing.T, g topo.GenConfig, batch, plain bool, plan *netsim.FaultPlan) ([]exchange, netsim.Handovers) {
	t.Helper()
	sc := topo.Generate(g)
	if plain {
		sc.Net.WalkPlain()
	}
	handovers := sc.Net.CountHandovers()
	lt := &logTransport{net: sc.Net}
	var tp tracer.Transport = lt
	if plan != nil {
		tp = netsim.WrapFaults(lt, *plan)
	}
	camp, err := measure.NewCampaign(tp, measure.Config{
		Dests: sc.Dests, Rounds: 4, Workers: 1, RoundStart: sc.RoundStart,
		PortSeed: 7, Batch: batch, Stream: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	return lt.log, handovers()
}

// TestShortcutWalkMatchesPlain runs each study twice, the second time on a
// network with both shortcuts off, and holds every exchange to its twin.
// Under dynamics the shortcuts still skip each hop's static work but
// charge its link and re-check the probe's own draws, handing the walk back
// where one differs; every row with a dynamics layer must hand back (or
// lose) at least one walk for each cause it can meet — the ladder's only
// within a batch, where a ladder lives — so no check goes unexercised.
func TestShortcutWalkMatchesPlain(t *testing.T) {
	const dests = 150
	noFlips := simtest.Default(dests)
	noFlips.FlipPerProbe = 0
	churn := simtest.Default(dests)
	churn.Churn = 0.5
	fullChurn := simtest.Dynamics(dests)
	fullChurn.Churn = 1
	drops := &netsim.FaultPlan{Seed: 5, DropEvery: 3, DropStart: 4, DropLen: 20}
	for _, tc := range []struct {
		name  string
		g     topo.GenConfig
		batch bool
		plan  *netsim.FaultPlan
	}{
		{"default", simtest.Default(dests), true, nil},
		{"default/unbatched", simtest.Default(dests), false, nil},
		{"flips-off", noFlips, true, nil},
		{"gadgets", simtest.Gadgets(dests), true, nil},
		{"drop-window", simtest.Default(dests), true, drops},
		{"churn", churn, true, nil},
		{"dynamics", simtest.Dynamics(dests), true, nil},
		{"dynamics/unbatched", simtest.Dynamics(dests), false, nil},
		{"dynamics/churn=1", fullChurn, true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, _ := studyExchanges(t, tc.g, tc.batch, true, tc.plan)
			short, h := studyExchanges(t, tc.g, tc.batch, false, tc.plan)
			sameExchanges(t, plain, short)
			if tc.g.Delay == 0 && tc.g.Load == 0 && tc.g.Churn == 0 {
				return
			}
			t.Logf("handovers: %+v", h)
			causes := []int64{h.MemoFlap, h.MemoBrown}
			if tc.batch {
				causes = append(causes, h.LadderFlap, h.LadderRot, h.LadderBrown)
			}
			if slices.Contains(causes, 0) {
				t.Errorf("a dynamics check was never met: %+v", h)
			}
		})
	}
}

// TestShortcutWalkMatchesPlainFigures traces Figs. 4 (zero-TTL forwarding)
// and 5 (NAT) with every method, batched and not, on twin networks, static
// and under dynamics.
func TestShortcutWalkMatchesPlainFigures(t *testing.T) {
	methods := []func(tracer.Transport, tracer.Options) tracer.Tracer{
		tracer.NewClassicUDP, tracer.NewParisUDP, tracer.NewClassicICMP,
		tracer.NewParisICMP, tracer.NewParisTCP, tracer.NewTCPTraceroute,
	}
	figs := map[string]func() (*netsim.Network, netip.Addr){
		"fig4": func() (*netsim.Network, netip.Addr) { f := topo.BuildFigure4(3); return f.Net, f.Dest.Addr },
		"fig5": func() (*netsim.Network, netip.Addr) { f := topo.BuildFigure5(3); return f.Net, f.Dest.Addr },
	}
	for fig, build := range figs {
		t.Run(fig, func(t *testing.T) {
			for _, dyn := range []netsim.Dynamics{{}, {Seed: 4, Delay: 1, Load: 0.3, Churn: 1}} {
				var logs [2][]exchange
				for side, plain := range []bool{true, false} {
					n, dst := build()
					if plain {
						n.WalkPlain()
					}
					n.SetDynamics(dyn)
					lt := &logTransport{net: n}
					for _, method := range methods {
						for _, batch := range []bool{false, true} {
							if _, err := method(lt, tracer.Options{MaxTTL: 16, ProbesPerHop: 2, Batch: batch}).Trace(dst); err != nil {
								t.Fatal(err)
							}
						}
					}
					logs[side] = lt.log
				}
				sameExchanges(t, logs[0], logs[1])
			}
		})
	}
}

// twinLines is two line topologies from one seed, the first walked plain,
// both with dynamics installed when dyn is set.
func twinLines(dyn bool) [2]*line {
	l := [2]*line{newLine(23), newLine(23)}
	l[0].net.WalkPlain()
	if dyn {
		for i := range l {
			l[i].net.SetDynamics(netsim.Dynamics{Seed: 3, Delay: 1, Load: 0.3, Churn: 1})
		}
	}
	return l
}

// exchangeTwins sends the same batch through both networks and requires
// equal outcomes.
func exchangeTwins(t *testing.T, l [2]*line, probes [][]byte) {
	t.Helper()
	var logs [2][]exchange
	for i := range l {
		lt := &logTransport{net: l[i].net}
		lt.ExchangeBatch(probes, make([]tracer.ProbeResult, len(probes)))
		logs[i] = lt.log
	}
	sameExchanges(t, logs[0], logs[1])
}

// TestMutationRetiresShortcuts exchanges a ladder batch, so the ladder and
// the return memos are recorded, then mutates a mid-path router (or the
// network) and exchanges again: every mutation is seen by the next
// exchange, as it is by the plain walk. Every row runs twice: static, and
// on twins with dynamics installed before the first exchange.
func TestMutationRetiresShortcuts(t *testing.T) {
	loop := lineIf(2) // r2 handing transit back to r1
	for name, mutate := range map[string]func(l *line){
		"unreachable":      func(l *line) { l.rs[2].SetFaults(netsim.Faults{Unreachable: true}) },
		"drop-probability": func(l *line) { l.rs[2].SetFaults(netsim.Faults{DropProbability: 0.5}) },
		"forward-override": func(l *line) { l.rs[2].SetFaults(netsim.Faults{ForwardOverride: loop}) },
		"add-route": func(l *line) {
			l.rs[2].AddRoute(netsim.Route{Prefix: host32(lineSrc), Hops: via1(lineIf(4))})
		},
		"set-routes": func(l *line) {
			l.rs[1].SetRoutes([]netsim.Route{{Prefix: anyDst, Hops: via1(lineIf(4))}})
		},
		"nat": func(l *line) {
			l.rs[2].SetNAT(netsim.NAT{Public: lineIf(3), Inside: netip.MustParsePrefix("10.0.0.0/8")})
		},
		"icmp-ttl": func(l *line) { l.rs[1].SetICMPTTL(64) },
		"dynamics": func(l *line) { l.net.SetDynamics(netsim.Dynamics{Seed: 5, Delay: 1, Churn: 0.5}) },
	} {
		t.Run(name, func(t *testing.T) {
			for _, dyn := range []bool{false, true} {
				t.Run(fmt.Sprintf("dynamics=%v", dyn), func(t *testing.T) {
					l := twinLines(dyn)
					probes := ladderBatch(t, lineSrc, lineHost)
					exchangeTwins(t, l, probes)
					for i := range l {
						mutate(l[i])
					}
					exchangeTwins(t, l, probes)
					exchangeTwins(t, l, probes)
				})
			}
		})
	}
}

// TestReplayMeetsRotation: under dynamics a per-destination pick moves
// with the balancer's rotation, so it is no plain hop of a reply's return.
// Here every reply to the source leaves r1 by such a pick, over one of two
// routers whose links differ in delay; twin networks at churn 1 exchange
// ladders across many rounds, so the picks rotate between replies, and the
// return replay must still report the plain walk's RTTs.
func TestReplayMeetsRotation(t *testing.T) {
	build := func() *netsim.Network {
		n := netsim.New(29)
		gw := n.AddRouter(netsim.NewRouter("gw", lineIf(1)))
		r1 := n.AddRouter(netsim.NewRouter("r1", lineIf(2)))
		a := n.AddRouter(netsim.NewRouter("a", ip4(10, 0, 2, 1)))
		b := n.AddRouter(netsim.NewRouter("b", ip4(10, 0, 3, 1)))
		n.AttachHost(netsim.NewHost("h", lineHost), lineIf(2))
		n.SetSource(lineSrc, lineIf(1))
		gw.AddRoute(netsim.Route{Prefix: host32(lineSrc), Hops: via1(lineSrc)})
		gw.AddRoute(netsim.Route{Prefix: host32(lineHost), Hops: via1(lineIf(2))})
		r1.AddRoute(netsim.Route{Prefix: host32(lineHost), Hops: via1(lineHost)})
		r1.AddRoute(netsim.Route{Prefix: anyDst, Balance: netsim.PerDestination,
			Hops: []netsim.NextHop{{Via: ip4(10, 0, 2, 1)}, {Via: ip4(10, 0, 3, 1)}}})
		a.AddRoute(netsim.Route{Prefix: anyDst, Hops: via1(lineIf(1))})
		b.AddRoute(netsim.Route{Prefix: anyDst, Hops: via1(lineIf(1))})
		n.SetDynamics(netsim.Dynamics{Seed: 8, Delay: 1, Churn: 1})
		return n
	}
	nets := [2]*netsim.Network{build(), build()}
	nets[0].WalkPlain()
	var logs [2][]exchange
	for i, n := range nets {
		lt := &logTransport{net: n}
		for round := 0; round < 40; round++ {
			n.SetVirtualRound(round)
			for port := uint16(0); port < 4; port++ {
				probes := make([][]byte, 4)
				for ttl := range probes {
					probes[ttl] = mkProbe(t, probeUDP, lineSrc, lineHost, uint8(ttl+1), 33434+port)
				}
				lt.ExchangeBatch(probes, make([]tracer.ProbeResult, len(probes)))
			}
		}
		logs[i] = lt.log
	}
	sameExchanges(t, logs[0], logs[1])
}

// TestReplayOnlyToSource: a reply to a probe that does not carry the
// measurement source's address goes elsewhere, so the return memos the
// source's replies recorded do not apply to it.
func TestReplayOnlyToSource(t *testing.T) {
	l := twinLines(false)
	exchangeTwins(t, l, ladderBatch(t, lineSrc, lineHost))
	exchangeTwins(t, l, ladderBatch(t, ip4(10, 0, 0, 9), lineHost))
}

// TestShortcutsShareTheWalk pins how much of a study the shortcuts save: a
// 500-destination, four-round, one-worker study reports Steps of which the
// walk itself takes at most walked, static and under dynamics. A purity
// check, or a dynamics check, that silently turns sharing off fails here.
func TestShortcutsShareTheWalk(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      topo.GenConfig
		walked float64
	}{
		{"static", simtest.Default(500), 0.35},
		{"dynamics", simtest.Dynamics(500), 0.40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := topo.Generate(tc.g)
			tally := sc.Net.CountWalks()
			camp, err := measure.NewCampaign(sc.Transport(), measure.Config{
				Dests: sc.Dests, Rounds: 4, Workers: 1, RoundStart: sc.RoundStart,
				PortSeed: 7, Batch: true, Stream: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := camp.Run(); err != nil {
				t.Fatal(err)
			}
			steps, fwd, ret := tally()
			walked := float64(steps-fwd-ret) / float64(steps)
			t.Logf("%d steps reported: %.1f%% walked, %.1f%% skipped forward, %.1f%% skipped back",
				steps, 100*walked, 100*float64(fwd)/float64(steps), 100*float64(ret)/float64(steps))
			if steps == 0 || walked > tc.walked {
				t.Errorf("the walk took %.1f%% of %d reported steps, want at most %.0f%%", 100*walked, steps, 100*tc.walked)
			}
		})
	}
}

// TestPatchTTLMatchesDecrements: one PatchTTL from t to t-k leaves the
// header checksum k single decrements do (RFC 1624 eqn. 3), for every TTL
// and every skip — what lets a resumed probe and a replayed reply carry
// the bytes of the plain walk.
func TestPatchTTLMatchesDecrements(t *testing.T) {
	for _, id := range []uint16{0, 1, 0x7fff, 0xfffe, 0xffff} {
		for ttl := 1; ttl < 256; ttl++ {
			base, err := (&packet.IPv4{TTL: uint8(ttl), ID: id, Protocol: packet.ProtoUDP, Src: lineSrc, Dst: lineHost}).MarshalInto(nil, make([]byte, 8))
			if err != nil {
				t.Fatal(err)
			}
			step := bytes.Clone(base)
			for k := 1; k < ttl; k++ {
				if err := packet.PatchTTL(step, uint8(ttl-k)); err != nil {
					t.Fatal(err)
				}
				once := bytes.Clone(base)
				if err := packet.PatchTTL(once, uint8(ttl-k)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(once, step) {
					t.Fatalf("ID %#x, TTL %d less %d: one patch %x, decrements %x", id, ttl, k, once[:20], step[:20])
				}
			}
		}
	}
}
