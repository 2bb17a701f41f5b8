package simtest_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pcap"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer"
	"repro/internal/tracer/flowkey"
	"repro/internal/tracer/live"
	"repro/internal/tracer/replay"
)

// The stale-slot table: every transport writes the whole of each result
// slot it is handed, whatever an earlier batch left there. Each slot starts
// with a stale Err, OK, RTT and a full 1500-byte buffer. A star must come
// back with no bytes and RTT 0, a failure with no star and no bytes, and a
// response in the slot's own buffer, answering the slot's own probe. Slot i
// must also hold what probe i gets alone, the probes exchanged one at a time
// in order through one recycled slot on a fresh copy of the transport.

const slotDests = 8

var errStale = errors.New("stale error from an earlier batch")

// recorder passes batches on to its transport and keeps every probe.
type recorder struct {
	tracer.Transport
	probes [][]byte
}

func (r *recorder) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	for _, p := range probes {
		r.probes = append(r.probes, bytes.Clone(p))
	}
	r.Transport.ExchangeBatch(probes, out)
}

// slotProbes is every probe batched Paris UDP and Paris ICMP traces send
// toward the default topology's destinations, each its own flow.
func slotProbes(t *testing.T) [][]byte {
	sc := topo.Generate(simtest.Default(slotDests))
	rec := &recorder{Transport: sc.Transport()}
	for _, m := range []string{"paris-udp", "paris-icmp"} {
		tr, err := tracer.New(m, rec, tracer.Options{Batch: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range sc.Dests {
			if _, err := tr.Trace(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	seen := map[flowkey.Key]bool{}
	for i, p := range rec.probes {
		k, _, _, ok := flowkey.ProbeKeys(p)
		if !ok || seen[k] {
			t.Fatalf("probe %d is unparseable or not its own flow", i)
		}
		seen[k] = true
	}
	return rec.probes
}

// static is a fresh copy of gen's topology as round 0 begins.
func static(gen topo.GenConfig) *topo.Scenario {
	sc := topo.Generate(gen)
	sc.RoundStart(0)
	return sc
}

// muxOver is a one-handle mux over a SimConn answering from net, losing
// every sixteenth response, closed when the test ends.
func muxOver(t *testing.T, net *netsim.Network, capture live.CaptureSink) *live.Mux {
	lossy := live.SimSchedule{Drop: func(ord int, _ []byte) bool { return ord%16 == 5 }}
	m, err := live.NewMux(live.MuxConfig{
		Source: net.Source(), Conn: &live.SimConn{Respond: simtest.Responder(net), Sched: lossy},
		Capture: capture, Sleep: noSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// recordSlots exchanges probes as one batch through a mux over the default
// topology, captured, and returns the capture's path.
func recordSlots(t *testing.T, probes [][]byte) string {
	path := filepath.Join(t.TempDir(), "slots.pcap")
	capture, err := pcap.CreateCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	m := muxOver(t, static(simtest.Default(slotDests)).Net, capture)
	m.Transport().ExchangeBatch(probes, make([]tracer.ProbeResult, len(probes)))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := capture.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// staleSlots is n result slots as an earlier batch might leave them.
func staleSlots(n int) []tracer.ProbeResult {
	out := make([]tracer.ProbeResult, n)
	for i := range out {
		out[i] = tracer.ProbeResult{Resp: bytes.Repeat([]byte{0xee}, 1500), RTT: time.Hour, OK: true, Err: errStale}
	}
	return out
}

// slotOutcome is a result as the table compares it; the RTT is dropped for
// transports that time on the wall clock.
func slotOutcome(r tracer.ProbeResult, wallRTT bool) string {
	if wallRTT {
		r.RTT = 0
	}
	return fmt.Sprintf("ok=%v rtt=%v err=%v resp=%x", r.OK, r.RTT, r.Err, r.Resp)
}

func TestStaleSlots(t *testing.T) {
	probes := slotProbes(t)
	capture := recordSlots(t, probes)
	faults := netsim.FaultPlan{Seed: 3, TransientEvery: 2, TransientStart: 2, TransientLen: 3, DropEvery: 2, DropStart: 6, DropLen: 3}
	for _, tc := range []struct {
		name string
		// wallRTT: the transport times exchanges on the wall clock.
		wallRTT bool
		// stars and fails: the row must produce them.
		stars, fails bool
		build        func(t *testing.T) tracer.Transport
	}{
		{name: "netsim", build: func(*testing.T) tracer.Transport {
			return static(simtest.Default(slotDests)).Transport()
		}},
		{name: "dynamics", stars: true, build: func(*testing.T) tracer.Transport {
			return static(simtest.Dynamics(slotDests)).Transport()
		}},
		{name: "faults", stars: true, fails: true, build: func(*testing.T) tracer.Transport {
			return netsim.WrapFaults(static(simtest.Default(slotDests)).Transport(), faults)
		}},
		{name: "paced", build: func(*testing.T) tracer.Transport {
			return tracer.NewPacedTransport(static(simtest.Default(slotDests)).Transport(), tracer.NewPacer(1e6, 1e6, nil, noSleep))
		}},
		{name: "mux", wallRTT: true, stars: true, build: func(t *testing.T) tracer.Transport {
			return muxOver(t, static(simtest.Default(slotDests)).Net, nil).Transport()
		}},
		{name: "replay", stars: true, build: func(t *testing.T) tracer.Transport {
			rt, err := replay.Open(capture, replay.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return rt
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := staleSlots(len(probes))
			bufs := make([]*byte, len(out))
			for i := range out {
				bufs[i] = &out[i].Resp[0]
			}
			tc.build(t).ExchangeBatch(probes, out)
			var answers, stars, fails int
			for i, r := range out {
				switch {
				case r.Err != nil:
					fails++
					if r.Err == errStale || r.OK || len(r.Resp) != 0 {
						t.Errorf("probe %d: failed slot %s", i, slotOutcome(r, false))
					}
				case !r.OK:
					stars++
					if len(r.Resp) != 0 || r.RTT != 0 {
						t.Errorf("probe %d: star with %d stale bytes and RTT %v", i, len(r.Resp), r.RTT)
					}
				default:
					answers++
					if &r.Resp[0] != bufs[i] {
						t.Errorf("probe %d: response not in the slot's own buffer", i)
					}
					key, ok := flowkey.RespKey(r.Resp)
					quoted, terminal, hasTerminal, _ := flowkey.ProbeKeys(probes[i])
					if !ok || (key != quoted && (!hasTerminal || key != terminal)) {
						t.Errorf("probe %d: response %x does not answer it", i, r.Resp)
					}
				}
			}
			t.Logf("%d probes: %d answers, %d stars, %d failures", len(probes), answers, stars, fails)
			if answers == 0 || tc.stars && stars == 0 || tc.fails && fails == 0 {
				t.Fatalf("%d answers, %d stars, %d failures: the row is degenerate", answers, stars, fails)
			}

			alone, one := tc.build(t), staleSlots(1)
			for i, p := range probes {
				alone.ExchangeBatch([][]byte{p}, one)
				if got, want := slotOutcome(one[0], tc.wallRTT), slotOutcome(out[i], tc.wallRTT); got != want {
					t.Fatalf("probe %d alone: %s\nin the batch: %s", i, got, want)
				}
			}
		})
	}
}
