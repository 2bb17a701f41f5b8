package main

import (
	"fmt"
	"time"
)

// budget is the per-probe cost table of one traced run: where the
// wall × procs processor-seconds of the traced rounds went, in nanoseconds
// per probe. Exchange, checkpoint and the workers' busy time come from the
// spans; craft, parse and fold are the layers phase's unit costs multiplied
// by the operations counted at the seams; what is left of the workers' busy
// time is the ladder and the bookkeeping around it.
type budget struct {
	wall  time.Duration
	procs int
	// g is the counters' change over the traced rounds: probes submitted
	// and answered (an answered probe is a parsed one), and the collector's
	// processor time.
	g     gauges
	pairs int

	busy          time.Duration // Σ over workers and rounds: round start to the worker's last exchange
	exchange      time.Duration // Σ exchange spans, all workers
	exchangeLabel string        // which transport the exchange spans enclose
	// checkpoint is the time the campaign goroutine worked alone between
	// rounds; it is charged at procs processors, since every worker waits.
	checkpoint time.Duration

	// Under the mux the exchange spans enclose these; they are shown as
	// parts of the exchange row and not added again.
	conn, respond time.Duration
}

// reportTraced files what every workload derives the same way from its
// traced rounds tr (ref: the untraced rounds between them; g: the counters'
// change over tr; pairs: the pairs measured in tr) — the proc.* and trace.*
// metrics, the workers' self share, the end-of-round gap — then runs the
// layers phase, prints the budget table and, when asked, writes the spans.
func reportTraced(c runConfig, o *outcome, rec *recorder, tr, ref phase, g gauges, pairs int, exchangeLabel string) error {
	spans := rec.all()
	total := func(kind int) time.Duration { return time.Duration(rec.total[kind].Load()) }
	b := budget{
		wall: tr.wall, procs: c.procs, g: g, pairs: pairs,
		busy: workerTime(spans, c.procs), exchange: total(spanExchange), exchangeLabel: exchangeLabel,
		checkpoint: roundGaps(spans), conn: total(spanConnWrite) + total(spanConnRead), respond: total(spanRespond),
	}
	o.layer["proc.rounds_measured"] = float64(tr.rounds)
	o.layer["trace.overhead_frac"] = overhead(ref, tr)
	o.layer["trace.spans"] = float64(len(spans))
	if g[gCalls] > 0 {
		o.layer["tracer.probes_per_exchange"] = g[gProbes] / g[gCalls]
	}
	if b.busy > 0 {
		o.layer["measure.self_share"] = 1 - float64(b.exchange)/float64(b.busy)
	}
	if tr.wall > 0 {
		o.layer["measure.ckpt_round_frac"] = float64(b.checkpoint) / float64(tr.wall)
	}
	procMetrics(o, g, tr.wall, c.procs, pairs)

	costs, err := runLayers(c, o)
	if err != nil {
		return err
	}
	b.report(c, o, costs)
	if c.traceOut != "" {
		return rec.writeJSONLines(c.traceOut)
	}
	return nil
}

// report prints the table and files its rows under budget.*.
func (b budget) report(c runConfig, o *outcome, u *layerCosts) {
	probes := b.g[gProbes]
	if probes == 0 || b.wall <= 0 {
		return
	}
	perProbe := func(total float64) float64 { return total / probes }
	capacity := float64(b.wall) * float64(b.procs)

	craft := u.craftNs * probes
	parse := u.parseNs * b.g[gAnswered]
	fold := u.foldNs * float64(b.pairs)
	exchange := float64(b.exchange)
	ladder := max(0, float64(b.busy)-exchange-craft-parse-fold)
	checkpoint := float64(b.checkpoint) * float64(b.procs)
	attributed := craft + exchange + parse + ladder + fold + checkpoint
	// The collector's workers take processors from the campaign's while
	// those keep their busy intervals open, so its time overlaps the rows
	// above and is shown beside them, not added.
	gc := b.g[gGCCPU] * 1e9

	o.layer["budget.craft_ns"] = perProbe(craft)
	o.layer["budget.exchange_ns"] = perProbe(exchange)
	o.layer["budget.parse_ns"] = perProbe(parse)
	o.layer["budget.ladder_ns"] = perProbe(ladder)
	o.layer["budget.fold_ns"] = perProbe(fold)
	o.layer["budget.checkpoint_ns"] = perProbe(checkpoint)
	o.layer["budget.gc_ns"] = perProbe(gc)
	o.layer["budget.unattributed_ns"] = perProbe(capacity - attributed)
	o.layer["budget.coverage"] = attributed / capacity

	if c.log == nil {
		return
	}
	row := func(name string, total float64, note string) {
		fmt.Fprintf(c.log, "  %-28s %10.1f ns/probe %6.1f%%  %s\n", name, perProbe(total), 100*total/capacity, note)
	}
	fmt.Fprintf(c.log, "  per-probe budget: %.0f probes, %d pairs, %.2fs traced x %d procs = %.0f ns/probe available\n",
		probes, b.pairs, b.wall.Seconds(), b.procs, perProbe(capacity))
	row("craft", craft, "packet.craft_ns x probes")
	row("exchange ("+b.exchangeLabel+")", exchange, "exchange spans")
	if b.conn > 0 {
		row("  of which mux", exchange-float64(b.conn), "exchange - conn spans; includes waiting for the receive loop")
		row("  of which conn", float64(b.conn-b.respond), "conn.write + conn.read - respond spans")
		row("  of which netsim answer", float64(b.respond), "respond spans")
	}
	row("parse", parse, "packet.parse_ns x answered probes")
	row("fold", fold, "measure.fold_ns_per_pair x pairs")
	row("ladder + bookkeeping", ladder, fmt.Sprintf("workers' busy time less the rows above; the ladder alone costs %.0f ns/probe over a null transport",
		max(0, u.ladderNs-u.craftNs-u.parseNs)))
	row("checkpoint", checkpoint, "time between a round's last exchange and its end, x procs")
	row("unattributed", capacity-attributed, "idle tails of the round, scheduling between rounds")
	row("(collector)", gc, "GC processor time, runtime/metrics; overlaps the rows above")
	fmt.Fprintf(c.log, "  budget.coverage %.3f\n", attributed/capacity)
}
