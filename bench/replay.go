package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/measure"
	"repro/internal/tracer"
	"repro/internal/tracer/replay"
)

// replayFixtureRounds is the length of the captured campaign replay_lossy
// loads and serves: every measured cycle does the same work.
const replayFixtureRounds = 10

// runReplay measures the offline path of anomaly-study -replay: a capture of
// a mux_lossy campaign is made first (untimed), then loaded and re-served
// cycles times. Each cycle is one
// replay.Open — pcap read plus exchange reconstruction, reported as setup_s —
// and one full streamed campaign over the replay transport. No mux and no
// simulator run while the clock does, and there is no warm-up: a replay is
// one-shot, every cycle starts as cold as the binary does.
func runReplay(c runConfig, cycles int) (*outcome, error) {
	o := newOutcome()
	rounds := replayFixtureRounds
	if c.rounds > 0 {
		// A toy run: -rounds is the fixture's length, replayed twice.
		rounds, cycles = c.rounds, 2
	}
	path := c.path("fixture.pcap")
	fixtureStart := time.Now()
	fix, err := newMuxCampaign(c, lossyModel(c), nil, nil, rounds, path)
	if err != nil {
		return nil, err
	}
	res, err := fix.camp.Run()
	if cerr := fix.mux.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	closeStart := time.Now()
	if err := fix.sink.Close(); err != nil {
		return nil, err
	}
	fixtureTime, closeTime := time.Since(fixtureStart), time.Since(closeStart)
	want := canonicalStats(res.Stats)
	dests, records := fix.sc.Dests, fix.sink.Count()
	fix = nil // the simulator and mux are garbage from here on

	var rec *recorder
	if c.trace {
		rec = newRecorder()
	}
	var (
		openS, roundMs []float64
		wall, serve    time.Duration // wall = Σ open + serve; the forced collection between cycles is outside it
		heapLive       uint64
		served         int
		leftover, junk int
		matched        = true
		tr, ref        phase  // traced and untraced rounds, all cycles
		g              gauges // counters' change over the traced rounds
	)
	for cycle := 0; cycle < cycles; cycle++ {
		openStart := time.Now()
		rt, err := replay.Open(path, replay.Config{Retries: muxRetries})
		if err != nil {
			return nil, err
		}
		opened := time.Now()
		openS = append(openS, opened.Sub(openStart).Seconds())

		clock := &roundClock{measured: rounds, rec: rec, probes: func() int64 { return int64(rt.Exchanges() - rt.Leftover()) }}
		cfg := muxCampaignConfig(c, dests, rounds, clock.roundStart)
		// A probe the capture does not hold is missing on every retry, so
		// the retry policy would only bury the divergence (as in the binary).
		cfg.FailFast = true
		cfg.TransportFor = func(int) tracer.Transport { return rt }
		if rec != nil {
			wrappers := make([]*tracedTransport, c.procs)
			for w := range wrappers {
				wrappers[w] = newTracedTransport(rt, rec, w)
			}
			cfg.TransportFor = func(w int) tracer.Transport { return wrappers[w] }
			clock.gauge = func() gauges { return readGauges(wrappers, nil) }
		}
		camp, err := measure.NewCampaign(nil, cfg)
		if err != nil {
			return nil, err
		}
		got, err := camp.Run()
		if err != nil {
			return nil, fmt.Errorf("replaying the fixture: %w", err)
		}
		clock.finish()
		done := time.Now()
		serve += done.Sub(opened)
		wall += done.Sub(openStart)

		roundMs = append(roundMs, clock.measuredPhase().roundMs...)
		t, u := clock.traced(), clock.reference()
		tr.rounds, tr.wall, tr.rates = tr.rounds+t.rounds, tr.wall+t.wall, append(tr.rates, t.rates...)
		ref.rates = append(ref.rates, u.rates...)
		g.add(clock.tracedSum)
		if cycle == 0 {
			// The loaded capture and the campaign's accumulators are all
			// still reachable here: what one replay holds at its end.
			heapLive = settledHeapBytes()
		}
		served += rt.Exchanges() - rt.Leftover()
		leftover, junk = leftover+rt.Leftover(), rt.Junk()
		matched = matched && bytes.Equal(canonicalStats(got.Stats), want)
		o.attempted += len(dests) * rounds
		o.failed += got.Stats.Robust.Failed + got.Stats.Robust.Skipped
	}

	o.check("replayed stats equal the captured run's", matched, "%d cycles of %d rounds x %d dests", cycles, rounds, len(dests))
	o.check("every captured exchange served", leftover == 0, "leftover=%d junk=%d records=%d", leftover, junk, records)

	pairs := cycles * rounds * len(dests)
	o.e2e["setup_s"] = median(openS)
	o.e2e["pairs_per_s"] = float64(pairs) / wall.Seconds()
	o.e2e["probes_per_s"] = float64(served) / wall.Seconds()
	o.e2e["round_ms_p50"] = quantile(roundMs, 0.5)
	o.layer["proc.round_ms_p90"] = quantile(roundMs, 0.9)
	o.e2e["live_heap_mb"] = float64(heapLive) / (1 << 20)
	if !c.trace {
		return o, nil
	}

	o.layer["replay.fixture_s"] = fixtureTime.Seconds()
	o.layer["pcap.close_ms"] = ms(closeTime)
	o.layer["replay.open_ns_per_rec"] = median(openS) * 1e9 / float64(records)
	o.layer["replay.serve_ns_per_probe"] = float64(serve) * float64(c.procs) / float64(served)
	o.layer["replay.leftover"] = float64(leftover)
	o.layer["replay.junk"] = float64(junk)
	if st, err := os.Stat(path); err == nil {
		o.layer["pcap.bytes"] = float64(st.Size())
	}
	// Only serving is probing: the budget covers the traced serving rounds,
	// with the load cost reported beside it as replay.open_ns_per_rec.
	return o, reportTraced(c, o, rec, tr, ref, g, tr.rounds*len(dests), "replay")
}
