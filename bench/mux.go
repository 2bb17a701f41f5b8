package main

import (
	"net/netip"
	"time"

	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/pcap"
	"repro/internal/topo"
	"repro/internal/tracer"
	"repro/internal/tracer/live"
)

// muxRetries is the mux's re-send budget, the binaries' -retries default.
const muxRetries = 1

// lossyModel is the pathology mux_lossy and the replay fixture inject: a
// tenth of responses lost per transmission, one in fifty delivered twice,
// newest first.
func lossyModel(c runConfig) lossModel {
	return lossModel{salt: mix64(uint64(c.seed)), loss: 0.10, dup: 0.02, reorder: true, attempts: 1 + muxRetries}
}

// muxCampaign is the -live wiring of cmd/anomaly-study with the raw sockets
// replaced by the bench conn: one live.Mux, one transport handle per worker,
// a paired-trace campaign on top.
type muxCampaign struct {
	sc       *topo.Scenario
	conn     *benchConn
	mux      *live.Mux
	sink     *pcap.Capture // nil: no capture armed
	cfg      measure.Config
	camp     *measure.Campaign
	wrappers []*tracedTransport
}

// newMuxCampaign builds the campaign. With a clock the clock drives and
// bounds the rounds; without one the campaign runs exactly rounds rounds.
// capturePath, when set, arms a pcap capture sink on the mux.
func newMuxCampaign(c runConfig, model lossModel, rec *recorder, clock *roundClock, rounds int, capturePath string) (*muxCampaign, error) {
	m := &muxCampaign{sc: topo.Generate(muxTopology(c))}
	net := m.sc.Net
	m.conn = newBenchConn(func(probe []byte) ([]byte, bool) {
		resp, _, ok := net.Exchange(probe)
		return resp, ok
	}, model, rec)
	mc := live.MuxConfig{Source: net.Source(), Conn: m.conn, Retries: muxRetries}
	if capturePath != "" {
		sink, err := pcap.CreateCapture(capturePath)
		if err != nil {
			return nil, err
		}
		m.sink, mc.Capture = sink, sink
	}
	mux, err := live.NewMux(mc)
	if err != nil {
		return nil, err
	}
	m.mux = mux

	roundStart := m.sc.RoundStart
	if clock != nil {
		clock.inner, clock.probes = m.sc.RoundStart, m.conn.written.Load
		roundStart, rounds = clock.roundStart, clock.rounds()
	}
	m.cfg = muxCampaignConfig(c, m.sc.Dests, rounds, roundStart)
	m.cfg.TransportFor = func(int) tracer.Transport { return mux.Transport() }
	if rec != nil {
		m.wrappers = make([]*tracedTransport, c.procs)
		for w := range m.wrappers {
			m.wrappers[w] = newTracedTransport(mux.Transport(), rec, w)
		}
		m.cfg.TransportFor = func(w int) tracer.Transport { return m.wrappers[w] }
	}
	if m.camp, err = measure.NewCampaign(nil, m.cfg); err != nil {
		mux.Close()
		return nil, err
	}
	return m, nil
}

// muxCampaignConfig is the campaign shape shared by the run through the mux,
// its reference run over the simulator, and the replay of its capture: the
// live binaries' MinTTL 1, batched ladders, streamed statistics.
func muxCampaignConfig(c runConfig, dests []netip.Addr, rounds int, roundStart func(int)) measure.Config {
	return measure.Config{
		Dests: dests, Rounds: rounds, Workers: c.procs, MinTTL: 1, PortSeed: c.seed,
		Batch: true, Stream: true, RoundStart: roundStart,
	}
}

// referenceTransport is the correctness reference of a run through the mux:
// the simulator exchanged with directly, with the loss model applied the way
// the mux experiences it. A probe whose response the model loses (or that
// the simulator leaves unanswered) is exchanged again, as the mux re-sends
// it, until the attempts are spent and it is a star. The repeats matter:
// the simulator's routers stamp responses from per-router IP ID counters,
// which the anomaly classification reads, so the reference must make every
// router answer as often as it did under the mux.
type referenceTransport struct {
	inner *netsim.Transport
	model lossModel
}

func (t *referenceTransport) Source() netip.Addr { return t.inner.Source() }

// retry settles one probe after its first exchange gave (resp, rtt, ok).
func (t *referenceTransport) retry(probe, resp []byte, rtt time.Duration, ok bool) ([]byte, time.Duration, bool) {
	h := hashProbe(probe)
	for attempt := 1; ; attempt++ {
		if ok && !t.model.dropped(h, attempt) {
			return resp, rtt, true
		}
		if attempt >= t.model.attempts {
			return nil, 0, false
		}
		resp, rtt, ok = t.inner.Exchange(probe)
	}
}

func (t *referenceTransport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	resp, rtt, ok := t.inner.Exchange(probe)
	return t.retry(probe, resp, rtt, ok)
}

func (t *referenceTransport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	t.inner.ExchangeBatch(probes, out)
	for i, p := range probes {
		resp, rtt, ok := t.retry(p, out[i].Resp, out[i].RTT, out[i].OK)
		out[i] = tracer.ProbeResult{Resp: append(out[i].Resp[:0], resp...), RTT: rtt, OK: ok}
	}
}

// referenceRun runs the same campaign directly over a second, identical
// simulator: the correctness reference, and the no-mux cost.
func referenceRun(c runConfig, model lossModel, rounds int) (stats *measure.Stats, probes int64, wall time.Duration, err error) {
	sc := topo.Generate(muxTopology(c))
	cfg := muxCampaignConfig(c, sc.Dests, rounds, sc.RoundStart)
	model.attempts = 1 + muxRetries
	camp, err := measure.NewCampaign(&referenceTransport{netsim.NewTransport(sc.Net), model}, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	stats, err = runCampaign(camp)
	return stats, int64(sc.Net.ProbeCount()), time.Since(start), err
}

func runMux(c runConfig, lossy bool, measured int) (*outcome, error) {
	o := newOutcome()
	var rec *recorder
	if c.trace {
		rec = newRecorder()
	}
	var model lossModel
	if lossy {
		model = lossyModel(c)
	}
	var clock *roundClock
	m, setupS, err := medianSetup(setupReps, func() (*muxCampaign, error) {
		clock = &roundClock{warm: warmupRounds, measured: measured, heapRound: 8, rec: rec}
		return newMuxCampaign(c, model, rec, clock, 0, "")
	}, func(m *muxCampaign) { m.mux.Close() })
	if err != nil {
		return nil, err
	}
	defer m.mux.Close()

	clock.gauge = func() gauges { return readGauges(m.wrappers, m.conn) }
	stats, err := runCampaign(m.camp)
	clock.finish()
	if err != nil {
		return nil, err
	}
	health := m.mux.Health()
	if err := m.mux.Close(); err != nil {
		return nil, err
	}
	dests, rounds := len(m.sc.Dests), clock.completed()
	checkFaultFree(o, stats, dests, rounds)
	ref, refProbes, refWall, err := referenceRun(c, model, rounds)
	if err != nil {
		return nil, err
	}
	differ := statsDiffer(stats, ref, !lossy)
	o.check("stats equal the run over netsim", len(differ) == 0,
		"%d rounds; %d datagrams sent for %d reference probes, %d responses lost, %d duplicated; fields that differ: %v",
		rounds, m.conn.written.Load(), refProbes, m.conn.lost.Load(), m.conn.duplicated.Load(), differ)

	o.e2e["setup_s"] = setupS
	ph := clock.measuredPhase()
	clock.endToEnd(o, ph, ph.rounds*dests)
	if !c.trace {
		return o, nil
	}

	tr, g := clock.traced(), clock.tracedSum
	o.layer["proc.warmup_s"] = clock.warmup().Seconds()
	exchange := time.Duration(rec.total[spanExchange].Load())
	connTime := time.Duration(rec.total[spanConnWrite].Load() + rec.total[spanConnRead].Load())
	respond := time.Duration(rec.total[spanRespond].Load())
	if probes := g[gProbes]; probes > 0 {
		o.layer["live.busy_ns_per_probe"] = float64(exchange-connTime) / probes
		o.layer["live.conn_ns_per_probe"] = float64(connTime-respond) / probes
		o.layer["live.respond_ns_per_probe"] = float64(respond) / probes
		o.layer["live.sends_per_probe"] = g[gWritten] / probes
		o.layer["live.stars_frac"] = 1 - g[gAnswered]/probes
		o.layer["live.allocs_per_probe"] = g[gAllocObjects] / probes
	}
	if g[gWrites] > 0 {
		o.layer["live.dgrams_per_write"] = g[gWritten] / g[gWrites]
	}
	if full := g[gReads] - g[gTimeoutTurns]; full > 0 {
		o.layer["live.dgrams_per_read"] = g[gRead] / full
	}
	o.layer["live.timeout_turns"] = g[gTimeoutTurns]
	o.layer["live.inflight_peak"] = float64(health.InFlightPeak)
	if refProbes > 0 {
		o.layer["live.netsim_ref_ns_per_probe"] = float64(refWall) * float64(c.procs) / float64(refProbes)
	}
	return o, reportTraced(c, o, rec, tr, clock.reference(), g, tr.rounds*dests, "mux")
}
