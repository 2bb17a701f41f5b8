package netsim_test

// The walk's two shortcuts — resuming a probe on its destination's forward
// ladder, replaying a reply from its originator's return memo — must be
// invisible: every exchange equal, byte for byte and IP IDs included, to the
// plain walk of the same probe on a twin network.

import (
	"bytes"
	"net/netip"
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
	res := make([]netsim.ExchangeResult, len(probes))
	t.net.ExchangeBatch(probes, res)
	for i, r := range res {
		t.log = append(t.log, exchange{bytes.Clone(probes[i]), r.Resp, r.Steps, r.RTT, r.OK})
		out[i] = tracer.ProbeResult{Resp: bytes.Clone(r.Resp), RTT: r.RTT, OK: r.OK}
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
// exchange that reached the network.
func studyExchanges(t *testing.T, g topo.GenConfig, batch, plain bool, plan *netsim.FaultPlan) []exchange {
	t.Helper()
	sc := topo.Generate(g)
	if plain {
		sc.Net.WalkPlain()
	}
	lt := &logTransport{net: sc.Net}
	var tp tracer.Transport = lt
	if plan != nil {
		tp = netsim.WrapFaults(lt, *plan)
	}
	camp, err := measure.NewCampaign(tp, measure.Config{
		Dests: sc.Dests, Rounds: 4, Workers: 1, RoundStart: sc.RoundStart,
		PortSeed: 7, Batch: batch, Stream: true, Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	return lt.log
}

// TestShortcutWalkMatchesPlain runs each study twice, the second time on a
// network with both shortcuts off, and holds every exchange to its twin.
// With a dynamics layer the shortcuts are bypassed, which the rows with
// churn show stays so.
func TestShortcutWalkMatchesPlain(t *testing.T) {
	const dests = 150
	noFlips := simtest.Default(dests)
	noFlips.FlipPerProbe = 0
	churn := simtest.Default(dests)
	churn.Churn = 0.5
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			sameExchanges(t, studyExchanges(t, tc.g, tc.batch, true, tc.plan), studyExchanges(t, tc.g, tc.batch, false, tc.plan))
		})
	}
}

// TestShortcutWalkMatchesPlainFigures traces Figs. 4 (zero-TTL forwarding)
// and 5 (NAT) with every method, batched and not, on twin networks.
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
			var logs [2][]exchange
			for side, plain := range []bool{true, false} {
				n, dst := build()
				if plain {
					n.WalkPlain()
				}
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
		})
	}
}

// twinLines is two line topologies from one seed, the first walked plain.
func twinLines() [2]*line {
	l := [2]*line{newLine(23), newLine(23)}
	l[0].net.WalkPlain()
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
// exchange, as it is by the plain walk.
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
			l := twinLines()
			probes := ladderBatch(t, lineSrc, lineHost)
			exchangeTwins(t, l, probes)
			for i := range l {
				mutate(l[i])
			}
			exchangeTwins(t, l, probes)
			exchangeTwins(t, l, probes)
		})
	}
}

// TestReplayOnlyToSource: a reply to a probe that does not carry the
// measurement source's address goes elsewhere, so the return memos the
// source's replies recorded do not apply to it.
func TestReplayOnlyToSource(t *testing.T) {
	l := twinLines()
	exchangeTwins(t, l, ladderBatch(t, lineSrc, lineHost))
	exchangeTwins(t, l, ladderBatch(t, ip4(10, 0, 0, 9), lineHost))
}

// TestShortcutsShareTheWalk pins how much of a study the shortcuts save: a
// default 500-destination, four-round, one-worker study reports Steps of
// which the walk itself takes at most walkedShare. A purity check that
// silently turns sharing off fails here.
func TestShortcutsShareTheWalk(t *testing.T) {
	const walkedShare = 0.35
	sc := topo.Generate(simtest.Default(500))
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
	if steps == 0 || walked > walkedShare {
		t.Errorf("the walk took %.1f%% of %d reported steps, want at most %.0f%%", 100*walked, steps, 100*walkedShare)
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
