package main

import "time"

// warmupRounds is how many leading rounds (or ticks) a workload that keeps
// state from round to round excludes from its measurements: route memo
// interning, scratch growth and path hints settle in them.
const warmupRounds = 5

// roundClock observes a campaign from its RoundStart seam: it times every
// round, reads the probe counter at each boundary, and in a traced run turns
// the recorder on for every other measured round, so the traced rounds and
// their untraced reference interleave and a drift over the run (the heap
// grows, collections thin out) biases neither. What the clock itself does at
// a boundary — reading counters, the forced collections — falls between one
// round's end stamp and the next round's start stamp, outside every measured
// interval.
type roundClock struct {
	warm     int // leading rounds excluded from the measured phase
	measured int // rounds measured after them
	// heapRound is the measured round before which the live heap is read:
	// a fixed round, so the reading is of the same work on every machine.
	// settle takes the reading; nil is settledHeapBytes.
	heapRound int
	settle    func() uint64
	inner     func(round int) // the scenario's own RoundStart
	probes    func() int64    // running probe (or datagram) count
	rec       *recorder       // nil: untraced run
	// gauge reads the run's cumulative counters; a traced run reads it at
	// both ends of every traced round and sums the differences in tracedSum.
	gauge func() gauges

	starts, ends []time.Time // round r ran from starts[r] to ends[r]
	probeMarks   []int64     // probe count at boundary r, the start of round r
	heapLive     uint64      // bytes, at heapRound
	tracedSum    gauges
	tracedAt     *gauges // the gauges at the start of the traced round in progress
	roundSpan    struct {
		id    int64
		start time.Time
		lane  *lane
	}
}

// rounds is the campaign's round bound: warm-up plus measured rounds.
func (c *roundClock) rounds() int { return c.warm + c.measured }

// roundStart is the measure.Config.RoundStart (or per-tick) hook.
func (c *roundClock) roundStart(r int) {
	c.boundary()
	c.closeRoundSpan()
	if c.heapRound > 0 && r == c.warm+min(c.heapRound, max(1, c.measured/2)) {
		if c.settle == nil {
			c.settle = settledHeapBytes
		}
		c.heapLive = c.settle()
	}
	if c.isTraced(r) {
		c.openRoundSpan(r)
	}
	c.starts = append(c.starts, time.Now())
	if c.inner != nil {
		c.inner(r)
	}
}

// boundary ends the round in progress, if any, and reads the probe counter.
func (c *roundClock) boundary() {
	if len(c.ends) < len(c.starts) {
		c.ends = append(c.ends, time.Now())
	}
	var p int64
	if c.probes != nil {
		p = c.probes()
	}
	c.probeMarks = append(c.probeMarks, p)
}

// finish ends the last round and closes the open round span.
func (c *roundClock) finish() {
	if len(c.ends) < len(c.starts) {
		c.boundary()
	}
	c.closeRoundSpan()
}

// completed is the number of whole rounds the clock saw.
func (c *roundClock) completed() int { return len(c.ends) }

// wall sums the durations of rounds [from, to).
func (c *roundClock) wall(from, to int) time.Duration {
	var d time.Duration
	for r := from; r < to && r < len(c.ends); r++ {
		d += c.ends[r].Sub(c.starts[r])
	}
	return d
}

// isTraced reports whether round r is one of a traced run's traced rounds:
// every second round of the measured phase.
func (c *roundClock) isTraced(r int) bool {
	return c.rec != nil && r >= c.warm && (r-c.warm)%2 == 1
}

// openRoundSpan turns the recorder on for round r and opens its round span.
func (c *roundClock) openRoundSpan(r int) {
	if c.roundSpan.lane == nil {
		c.roundSpan.lane = c.rec.newLane()
	}
	if c.gauge != nil {
		g := c.gauge()
		c.tracedAt = &g
	}
	c.rec.roundNo.Store(int32(r))
	c.roundSpan.id, c.roundSpan.start = c.rec.begin()
	c.rec.round.Store(c.roundSpan.id)
	c.rec.on.Store(true)
}

// closeRoundSpan ends the traced round in progress, if any, and turns the
// recorder off.
func (c *roundClock) closeRoundSpan() {
	if c.rec == nil || c.roundSpan.id == 0 {
		return
	}
	c.rec.on.Store(false)
	c.rec.end(c.roundSpan.lane, spanRound, -1, c.roundSpan.id, 0, c.roundSpan.start)
	c.roundSpan.id = 0
	if c.tracedAt != nil {
		c.tracedSum.add(c.gauge().sub(*c.tracedAt))
		c.tracedAt = nil
	}
}

// phase is a set of whole rounds read off a clock.
type phase struct {
	rounds  int
	wall    time.Duration
	probes  int64
	roundMs []float64
	rates   []float64 // probes per second, round by round
}

// phase gathers the completed rounds from round from on that keep accepts.
func (c *roundClock) phase(from int, keep func(r int) bool) phase {
	var p phase
	for r := from; r < c.completed(); r++ {
		if !keep(r) {
			continue
		}
		d := c.ends[r].Sub(c.starts[r])
		p.rounds++
		p.wall += d
		p.probes += c.probeMarks[r+1] - c.probeMarks[r]
		p.roundMs = append(p.roundMs, ms(d))
		if d > 0 {
			p.rates = append(p.rates, float64(c.probeMarks[r+1]-c.probeMarks[r])/d.Seconds())
		}
	}
	return p
}

// measuredPhase is the phase after warm-up; a traced run splits it into the
// traced rounds and the untraced reference rounds between them.
func (c *roundClock) measuredPhase() phase {
	return c.phase(c.warm, func(int) bool { return true })
}
func (c *roundClock) traced() phase { return c.phase(c.warm, c.isTraced) }
func (c *roundClock) reference() phase {
	return c.phase(c.warm, func(r int) bool { return !c.isTraced(r) })
}

func (c *roundClock) warmup() time.Duration { return c.wall(0, c.warm) }

// endToEnd fills the metrics every campaign-shaped workload reports the same
// way from phase p of this clock.
func (c *roundClock) endToEnd(o *outcome, p phase, pairs int) {
	if p.wall <= 0 {
		return
	}
	o.e2e["pairs_per_s"] = float64(pairs) / p.wall.Seconds()
	o.e2e["probes_per_s"] = float64(p.probes) / p.wall.Seconds()
	o.e2e["round_ms_p50"] = quantile(p.roundMs, 0.5)
	o.layer["proc.round_ms_p90"] = quantile(p.roundMs, 0.9)
	o.e2e["live_heap_mb"] = float64(c.heapLive) / (1 << 20)
}

// overhead is the traced rounds' throughput loss against the untraced
// reference rounds of the same run. It compares the medians of the per-round
// probe rates, so the few rounds a checkpoint or a buffer growth makes many
// times longer do not decide it by which side they fall on.
func overhead(ref, traced phase) float64 {
	if len(ref.rates) == 0 || len(traced.rates) == 0 || median(ref.rates) == 0 {
		return 0
	}
	return 1 - median(traced.rates)/median(ref.rates)
}
