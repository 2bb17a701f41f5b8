package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/measure"
	"repro/internal/topo"
	"repro/internal/tracer"
)

type studyVariant int

const (
	studyStatic studyVariant = iota
	studyDynamics
	studyCheckpoint
)

// study is one constructed paired-trace campaign over the simulator, with
// the clock that observes it.
type study struct {
	sc       *topo.Scenario
	cfg      measure.Config
	camp     *measure.Campaign
	clock    *roundClock
	wrappers []*tracedTransport
}

// newStudy does what cmd/anomaly-study does between flag parsing and
// RunContext: generate the topology, build the campaign over its transport.
func newStudy(c runConfig, v studyVariant, rounds int, rec *recorder) (*study, time.Duration, error) {
	g := studyTopology(c)
	if v == studyDynamics {
		g.Delay, g.Load, g.Churn = 1, 0.3, 0.5
	}
	genStart := time.Now()
	sc := topo.Generate(g)
	genTime := time.Since(genStart)

	s := &study{sc: sc}
	s.clock = &roundClock{
		warm: warmupRounds, measured: rounds, heapRound: 8,
		inner: sc.RoundStart, probes: probeCounter(sc.Nets), rec: rec,
	}
	tp := sc.Transport()
	s.cfg = measure.Config{
		Dests:          sc.Dests,
		Rounds:         s.clock.rounds(),
		Workers:        c.procs,
		RoundStart:     s.clock.roundStart,
		PortSeed:       c.seed,
		ShardOf:        sc.ShardOf,
		Batch:          true,
		Stream:         true,
		TransportState: probeCounters(sc.Nets),
	}
	if v == studyCheckpoint {
		s.cfg.CheckpointPath = c.path("study.ck")
		s.cfg.CheckpointEvery = 1
	}
	if rec != nil {
		s.wrappers = make([]*tracedTransport, c.procs)
		for w := range s.wrappers {
			// Both of netsim's transports batch.
			s.wrappers[w] = newTracedTransport(tp.(tracer.BatchTransport), rec, w)
		}
		s.cfg.TransportFor = func(w int) tracer.Transport { return s.wrappers[w] }
	}
	camp, err := measure.NewCampaign(tp, s.cfg)
	if err != nil {
		return nil, 0, err
	}
	s.camp = camp
	return s, genTime, nil
}

// runCampaign runs a streaming campaign to its end and returns its
// statistics.
func runCampaign(camp *measure.Campaign) (*measure.Stats, error) {
	res, err := camp.Run()
	if err != nil {
		return nil, err
	}
	if res.Stats == nil {
		return nil, fmt.Errorf("campaign returned no streamed statistics")
	}
	return res.Stats, nil
}

func runStudy(c runConfig, v studyVariant, measured int) (*outcome, error) {
	o := newOutcome()
	var rec *recorder
	if c.trace {
		rec = newRecorder()
	}
	var genMs []float64
	s, setupS, err := medianSetup(setupReps, func() (*study, error) {
		s, gen, err := newStudy(c, v, measured, rec)
		genMs = append(genMs, ms(gen))
		return s, err
	}, nil)
	if err != nil {
		return nil, err
	}

	s.clock.gauge = func() gauges { return readGauges(s.wrappers, nil) }
	stats, err := runCampaign(s.camp)
	s.clock.finish()
	if err != nil {
		return nil, err
	}
	dests, rounds := len(s.sc.Dests), s.clock.completed()
	checkFaultFree(o, stats, dests, rounds)
	o.stats = canonicalStats(stats)

	o.e2e["setup_s"] = setupS
	ph := s.clock.measuredPhase()
	s.clock.endToEnd(o, ph, ph.rounds*dests)

	var ck *measure.Checkpoint
	if v == studyCheckpoint {
		if ck, err = checkResume(c, o, s, rounds); err != nil {
			return nil, err
		}
	}
	if !c.trace {
		return o, nil
	}

	o.layer["topo.generate_ms"] = median(genMs)
	o.layer["proc.warmup_s"] = s.clock.warmup().Seconds()
	if ck != nil {
		if err := checkpointLayers(c, o, s, ck, rounds); err != nil {
			return nil, err
		}
	}
	tr := s.clock.traced()
	return o, reportTraced(c, o, rec, tr, s.clock.reference(), s.clock.tracedSum, tr.rounds*dests, "netsim")
}

// checkResume is the study_checkpoint correctness check: the checkpoint on
// disk is the last completed round's and a fresh campaign of the same shape
// resumes from it. In a traced run the load-and-resume is repeated and its
// median reported as measure.recover_s — what an operator waits after a
// kill before probing continues.
func checkResume(c runConfig, o *outcome, s *study, rounds int) (*measure.Checkpoint, error) {
	cfg := s.cfg
	cfg.RoundStart = nil
	cfg.TransportFor = nil
	camp, err := measure.NewCampaign(s.sc.Transport(), cfg)
	if err != nil {
		return nil, err
	}
	reps := 1
	if c.trace {
		reps = recoverReps
	}
	var ck *measure.Checkpoint
	var secs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if ck, err = measure.LoadCheckpoint(cfg.CheckpointPath); err != nil {
			return nil, err
		}
		if err := restoreProbeCounters(s.sc.Nets, ck.Transport); err != nil {
			return nil, err
		}
		if err := camp.Resume(ck); err != nil {
			o.check("checkpoint resumes", false, "%v", err)
			return ck, nil
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	o.check("checkpoint resumes at last round", ck.NextRound == rounds, "NextRound=%d rounds=%d", ck.NextRound, rounds)
	o.layer["measure.recover_s"] = median(secs)
	return ck, nil
}

// checkpointLayers times the accumulator the other way round — snapshot,
// encode, write, read, restore, merge — on the run's real final state.
func checkpointLayers(c runConfig, o *outcome, s *study, ck *measure.Checkpoint, rounds int) error {
	accs := make([]*measure.Accumulator, len(ck.Workers))
	start := time.Now()
	for w := range ck.Workers {
		a, err := measure.RestoreAccumulator(ck.Workers[w])
		if err != nil {
			return err
		}
		accs[w] = a
	}
	o.layer["measure.acc_restore_ms"] = ms(time.Since(start))

	start = time.Now()
	for _, a := range accs {
		a.State()
	}
	o.layer["measure.acc_state_ms"] = ms(time.Since(start))

	start = time.Now()
	measure.Merge(rounds, len(s.sc.Dests), accs...)
	o.layer["measure.merge_ms"] = ms(time.Since(start))

	path := c.path("study-layers.ck")
	start = time.Now()
	if err := ck.Save(path); err != nil {
		return err
	}
	o.layer["measure.ckpt_save_ms"] = ms(time.Since(start))

	start = time.Now()
	if _, err := measure.LoadCheckpoint(path); err != nil {
		return err
	}
	o.layer["measure.ckpt_load_ms"] = ms(time.Since(start))
	if st, err := os.Stat(path); err == nil {
		o.layer["measure.ckpt_bytes"] = float64(st.Size())
	}
	return nil
}

// recoverReps is how many times a traced run repeats a recovery; recover_s
// is the median.
const recoverReps = 3

// workerTime sums, over every worker and round, the time from the round's
// start to the end of that worker's last exchange in it: the time the worker
// had work. Exchanges through a wrapper that procs workers share (worker -1:
// the daemon's pool, which drains one queue) count for all of them.
func workerTime(spans []span, procs int) time.Duration {
	type key struct {
		worker int16
		round  int64 // the round span's identifier, every exchange's parent
	}
	roundStart := map[int64]int64{}
	lastEnd := map[key]int64{}
	for _, s := range spans {
		switch s.Kind {
		case spanRound:
			roundStart[s.ID] = s.Start
		case spanExchange:
			k := key{s.Worker, s.Parent}
			lastEnd[k] = max(lastEnd[k], s.End)
		}
	}
	var total int64
	for k, end := range lastEnd {
		if start, ok := roundStart[k.round]; ok && end > start {
			if k.worker < 0 {
				total += (end - start) * int64(procs)
			} else {
				total += end - start
			}
		}
	}
	return time.Duration(total)
}

// roundGaps sums, over the traced rounds, the time between the last
// exchange of a round and the round's end: every worker has finished and the
// campaign goroutine alone flushes folds and, when armed, snapshots, encodes
// and writes the checkpoint.
func roundGaps(spans []span) time.Duration {
	roundEnd := map[int64]int64{}
	lastExchange := map[int64]int64{}
	for _, s := range spans {
		switch s.Kind {
		case spanRound:
			roundEnd[s.ID] = s.End
		case spanExchange:
			lastExchange[s.Parent] = max(lastExchange[s.Parent], s.End)
		}
	}
	var total int64
	for r, end := range roundEnd {
		if last, ok := lastExchange[r]; ok && end > last {
			total += end - last
		}
	}
	return time.Duration(total)
}
