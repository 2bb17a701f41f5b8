package measure

import (
	"fmt"
	"io"
	"time"

	"repro/internal/anomaly"
	"repro/internal/asmap"
)

// row is one paper-vs-measured comparison line. Its unit is "%", a word,
// or empty for a count.
type row struct {
	name            string
	paper, measured float64
	unit            string
}

// cell renders one value of r: a percentage, a quantity followed by its
// word unit, or a count as an integer.
func (r row) cell(v float64) string {
	switch r.unit {
	case "":
		return fmt.Sprintf("%.0f", v)
	case "%":
		return fmt.Sprintf("%.2f%%", v)
	}
	return fmt.Sprintf("%.2f %s", v, r.unit)
}

// rows renders the full comparison table from measured stats. The paper
// column holds the values Section 4 of the paper quotes.
func rows(s *Stats) []row {
	lp := func(c anomaly.Cause) float64 { return CausePct(s.Loops.ByCause, c) }
	cp := func(c anomaly.Cause) float64 { return CausePct(s.Cycles.ByCause, c) }
	parisOnlyPct := 0.0
	if s.Loops.Instances > 0 {
		parisOnlyPct = 100 * float64(s.Loops.ParisOnly) / float64(s.Loops.Instances)
	}
	return []row{
		{"loops: routes with >=1 loop", 5.3, pct(s.Loops.RoutesWithLoop, s.Routes), "%"},
		{"loops: destinations affected", 18, pct(s.Loops.DestsWithLoop, s.Dests), "%"},
		{"loops: addresses in a loop", 6.3, pct(s.Loops.AddrsInLoop, s.AddrsSeen), "%"},
		{"loops: signatures seen in one round", 18, pct(s.Loops.OneRoundSignatures, s.Loops.Signatures), "%"},
		{"loops: caused by per-flow LB", 87, lp(anomaly.CausePerFlowLB), "%"},
		{"loops: caused by zero-TTL forwarding", 6.9, lp(anomaly.CauseZeroTTL), "%"},
		{"loops: caused by unreachability", 1.2, lp(anomaly.CauseUnreachability), "%"},
		{"loops: caused by address rewriting", 2.8, lp(anomaly.CauseAddressRewriting), "%"},
		{"loops: residual (per-packet LB)", 2.5, lp(anomaly.CausePerPacketLB), "%"},
		{"loops: seen only by Paris", 0.25, parisOnlyPct, "%"},
		{"cycles: routes with >=1 cycle", 0.84, pct(s.Cycles.RoutesWithCycle, s.Routes), "%"},
		{"cycles: destinations affected", 11, pct(s.Cycles.DestsWithCycle, s.Dests), "%"},
		{"cycles: addresses in a cycle", 3.6, pct(s.Cycles.AddrsInCycle, s.AddrsSeen), "%"},
		{"cycles: signatures seen in one round", 30, pct(s.Cycles.OneRoundSignatures, s.Cycles.Signatures), "%"},
		{"cycles: mean rounds per signature", 6.8, s.Cycles.MeanRoundsPerSignature, "rounds"},
		{"cycles: caused by per-flow LB", 78, cp(anomaly.CausePerFlowLB), "%"},
		{"cycles: caused by forwarding loops", 20, cp(anomaly.CauseForwardingLoop), "%"},
		{"cycles: caused by unreachability", 1.2, cp(anomaly.CauseUnreachability), "%"},
		{"diamonds: destinations affected", 79, pct(s.Diamonds.DestsWithDiamond, s.Dests), "%"},
		{"diamonds: total count", 16385, float64(s.Diamonds.Total), ""},
		{"diamonds: caused by per-flow LB", 64, pct(s.Diamonds.PerFlow, s.Diamonds.Total), "%"},
	}
}

// WriteReport renders the comparison table plus campaign bookkeeping.
func WriteReport(w io.Writer, s *Stats, as *asmap.Table) {
	fmt.Fprintf(w, "campaign: %d destinations x %d rounds = %d classic routes\n",
		s.Dests, s.Rounds, s.Routes)
	fmt.Fprintf(w, "responses: %d   distinct addresses: %d   mid-route stars: %d   reached: %.1f%%\n",
		s.Responses, s.AddrsSeen, s.MidStars, s.ReachedPct)
	if s.RTT.Samples > 0 {
		fmt.Fprintf(w, "hop RTTs: %d samples   mean: %s   min: %s   max: %s\n",
			s.RTT.Samples, time.Duration(s.RTT.MeanNs()), time.Duration(s.RTT.MinNs), time.Duration(s.RTT.MaxNs))
	}
	if s.Robust.Failed > 0 || s.Robust.Skipped > 0 {
		fmt.Fprintf(w, "fault tolerance: %d pairs probed, %d failed, %d skipped, %d destinations quarantined\n",
			s.Robust.Probed, s.Robust.Failed, s.Robust.Skipped, s.Robust.QuarantinedDests)
	}
	if as != nil {
		cov := as.Cover(s.AllAddresses)
		fmt.Fprintf(w, "AS coverage: %d ASes (%d tier-1, %d regional), %d unmapped addresses\n",
			cov.ASes, cov.TierOne, cov.Regional, cov.Unmapped)
	}
	fmt.Fprintf(w, "\n%-42s %12s %12s\n", "statistic", "paper", "measured")
	for _, r := range rows(s) {
		fmt.Fprintf(w, "%-42s %12s %12s\n", r.name, r.cell(r.paper), r.cell(r.measured))
	}
}
