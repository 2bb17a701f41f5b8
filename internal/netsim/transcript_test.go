package netsim_test

// Response-transcript goldens: the differential for the compiled forwarding
// plane. The digests under testdata were recorded at the last commit whose
// walk resolved every address by hash, hop by hop; whatever the walk is
// compiled into since must answer every probe with the same bytes, the same
// Steps, the same OK and the same virtual RTT.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

var updateTranscripts = flag.Bool("update-transcripts", false, "rewrite testdata/transcripts.golden from this build's responses")

const transcriptGolden = "testdata/transcripts.golden"

// transcriptTransport records everything the network hands back — response
// bytes, Steps, OK, RTT — while passing the tracer what netsim.Transport
// would. Without dynamics the RTT is hashed as 0: the goldens hold the
// virtual RTT, and Steps already determines the static one.
type transcriptTransport struct {
	net    *netsim.Network
	static bool
	h      hash.Hash
	n      int
	steps  []int
}

func (t *transcriptTransport) record(resp []byte, steps int, rtt time.Duration, ok bool) {
	var b [21]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(len(resp)))
	binary.LittleEndian.PutUint64(b[4:], uint64(steps))
	binary.LittleEndian.PutUint64(b[12:], uint64(rtt))
	if ok {
		b[20] = 1
	}
	t.h.Write(b[:])
	t.h.Write(resp)
	t.n++
}

func (t *transcriptTransport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	for len(t.steps) < len(probes) {
		t.steps = append(t.steps, 0)
	}
	t.net.ExchangeSteps(probes, out, t.steps)
	for i, r := range out[:len(probes)] {
		rtt := r.RTT
		if t.static {
			rtt = 0
		}
		t.record(r.Resp, t.steps[i], rtt, r.OK)
	}
}

func (t *transcriptTransport) Source() netip.Addr { return t.net.Source() }

// transcriptDynamics is the dynamics-on setting of the goldens.
var transcriptDynamics = netsim.Dynamics{Seed: 0x7ea1, Delay: 1, Load: 0.3, Churn: 0.5}

type transcriptWorld struct {
	net        *netsim.Network
	dests      []netip.Addr
	roundStart func(int)
	dyn        bool
}

func figureWorld(net *netsim.Network, dest *netsim.Host, dyn bool) transcriptWorld {
	if dyn {
		net.SetDynamics(transcriptDynamics)
	}
	return transcriptWorld{net: net, dests: []netip.Addr{dest.Addr}, roundStart: net.SetVirtualRound, dyn: dyn}
}

func generatedWorld(cfg topo.GenConfig, dyn bool) transcriptWorld {
	cfg.Destinations = 200
	if dyn {
		cfg.Delay, cfg.Load, cfg.Churn = transcriptDynamics.Delay, transcriptDynamics.Load, transcriptDynamics.Churn
	}
	sc := topo.Generate(cfg)
	return transcriptWorld{net: sc.Net, dests: sc.Dests, roundStart: sc.RoundStart, dyn: dyn}
}

// transcriptTopologies builds each topology fresh: responses carry IP IDs,
// so a network is good for one transcript.
var transcriptTopologies = []struct {
	name  string
	build func(dyn bool) transcriptWorld
}{
	{"fig1-perflow", func(dyn bool) transcriptWorld {
		f := topo.BuildFigure1(1, netsim.PerFlow)
		return figureWorld(f.Net, f.Dest, dyn)
	}},
	{"fig1-perpacket", func(dyn bool) transcriptWorld {
		f := topo.BuildFigure1(1, netsim.PerPacket)
		return figureWorld(f.Net, f.Dest, dyn)
	}},
	{"fig3", func(dyn bool) transcriptWorld {
		f := topo.BuildFigure3(3)
		return figureWorld(f.Net, f.Dest, dyn)
	}},
	{"fig3-perpacket", func(dyn bool) transcriptWorld {
		f := topo.BuildFigure3PerPacket(3)
		return figureWorld(f.Net, f.Dest, dyn)
	}},
	{"fig4", func(dyn bool) transcriptWorld {
		f := topo.BuildFigure4(4)
		return figureWorld(f.Net, f.Dest, dyn)
	}},
	{"fig5", func(dyn bool) transcriptWorld {
		f := topo.BuildFigure5(5)
		return figureWorld(f.Net, f.Dest, dyn)
	}},
	{"fig6", func(dyn bool) transcriptWorld {
		f := topo.BuildFigure6(6, netsim.PerFlow)
		return figureWorld(f.Net, f.Dest, dyn)
	}},
	{"gen200-flips", func(dyn bool) transcriptWorld {
		cfg := topo.DefaultGenConfig()
		// The calibrated rate toggles a schedule about once in 160 rounds;
		// the transcript wants the flip gadget to actually fire mid-ladder.
		cfg.FlipPerProbe = 0.01
		return generatedWorld(cfg, dyn)
	}},
	{"gen200-invariant", func(dyn bool) transcriptWorld {
		// Per-flow balancing only and no flips: the forwarding no
		// per-exchange draw touches.
		cfg := topo.DefaultGenConfig()
		cfg.PPerPacket, cfg.PPerPacketUnequal = 0, 0
		cfg.PFlipPod, cfg.FlipPerProbe = 0, 0
		return generatedWorld(cfg, dyn)
	}},
}

var transcriptMethods = []struct {
	name string
	new  func(tracer.Transport, tracer.Options) tracer.Tracer
}{
	{"classic-udp", tracer.NewClassicUDP},
	{"paris-udp", tracer.NewParisUDP},
	{"classic-icmp", tracer.NewClassicICMP},
	{"paris-icmp", tracer.NewParisICMP},
	{"paris-tcp", tracer.NewParisTCP},
	{"tcptraceroute", tracer.NewTCPTraceroute},
}

// runTranscript traces every destination with every probe method over two
// rounds, one worker, and returns the digest of everything the network
// answered and the number of exchanges behind it.
func runTranscript(t *testing.T, w transcriptWorld, batch bool) (string, int) {
	t.Helper()
	tp := &transcriptTransport{net: w.net, static: !w.dyn, h: sha256.New()}
	opts := tracer.Options{MinTTL: 1, MaxTTL: 39, Batch: batch}
	for round := 0; round < 2; round++ {
		w.roundStart(round)
		for _, m := range transcriptMethods {
			tr := m.new(tp, opts)
			for _, d := range w.dests {
				if _, err := tr.Trace(d); err != nil {
					t.Fatalf("%s toward %v: %v", m.name, d, err)
				}
			}
		}
	}
	return fmt.Sprintf("%x", tp.h.Sum(nil)), tp.n
}

func readTranscriptGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(transcriptGolden)
	if err != nil {
		t.Fatalf("%v (record with -update-transcripts)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", transcriptGolden, line)
		}
		want[name] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTranscriptGolden replays the recorded campaigns — the paper-figure
// topologies and two 200-destination generated ones (flips on; the
// invariance configuration), all six probe methods, Exchange and
// ExchangeBatch, dynamics off and on — and requires the digests recorded
// before the forwarding plane was compiled.
func TestTranscriptGolden(t *testing.T) {
	got := map[string]string{}
	for _, topology := range transcriptTopologies {
		for _, dyn := range []bool{false, true} {
			for _, batch := range []bool{false, true} {
				name := topology.name
				if dyn {
					name += "/dynamics"
				} else {
					name += "/static"
				}
				if batch {
					name += "/batch"
				} else {
					name += "/exchange"
				}
				digest, n := runTranscript(t, topology.build(dyn), batch)
				got[name] = fmt.Sprintf("%d %s", n, digest)
			}
		}
	}

	if *updateTranscripts {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# <topology>/<dynamics>/<path> <exchanges> <sha256 of every (len, steps, rtt, ok, response)>\n")
		b.WriteString("# Recorded by TestTranscriptGolden -update-transcripts; see transcript_test.go.\n")
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(transcriptGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(transcriptGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want := readTranscriptGolden(t)
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden recorded", name)
		} else if w != g {
			t.Errorf("%s: transcript diverged from the recorded walk\n got %s\nwant %s", name, g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d goldens recorded, %d transcripts run", len(want), len(got))
	}
}
