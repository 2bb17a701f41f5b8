// Package repro is a full reproduction of "Avoiding traceroute anomalies
// with Paris traceroute" (Augustin et al., IMC 2006): the Paris traceroute
// probing technique, the classic tools it is compared against, the loop /
// cycle / diamond anomaly taxonomy with cause classification, and the
// measurement methodology of the paper's study — all runnable against a
// deterministic packet-level network simulator (or a live UDP transport).
//
// The top-level package is a thin facade; the implementation lives in:
//
//   - internal/packet  — IPv4/UDP/TCP/ICMPv4 wire formats and the
//     checksum-crafting tricks Paris traceroute depends on;
//   - internal/flow    — flow-identifier extraction and ECMP hashing;
//   - internal/netsim  — the simulated network (routers, load balancers,
//     NATs, faults, routing dynamics);
//   - internal/topo    — topology presets for every paper figure and the
//     campaign generator;
//   - internal/tracer  — classic, Paris, and TCP traceroute engines;
//   - internal/anomaly — loop/cycle/diamond detection and classification;
//   - internal/measure — the Section 3/4 campaign engine and statistics.
//
// Quick start (simulated network):
//
//	fig := topo.BuildFigure3(1)                    // a load-balanced net
//	tp := netsim.NewTransport(fig.Net)
//	paris := tracer.NewParisUDP(tp, tracer.Options{})
//	route, err := paris.Trace(fig.Dest.Addr)
//
// See examples/ for runnable programs and cmd/ for the CLI tools.
package repro

import (
	"net/netip"

	"repro/internal/anomaly"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// Session is the high-level measurement API: the paper's side-by-side
// methodology, one destination at a time, with the study's probing shape
// (measure.ProbeConfig's defaults). Not safe for concurrent use.
type Session struct {
	prober *measure.Prober
	// pairs counts MeasurePair calls. Each is a new classic traceroute
	// process with a new PID-derived source port, which the prober derives
	// from the round it is told.
	pairs int
}

// NewSession creates a session over any transport.
func NewSession(tp tracer.Transport) *Session {
	return &Session{prober: measure.NewProber(tp, measure.ProbeConfig{})}
}

// NewSimulatedSession generates a random Internet-like scenario with the
// given seed and returns a measurement session over it together with the
// scenario's destination list.
func NewSimulatedSession(seed int64, destinations int) (*Session, []netip.Addr) {
	cfg := topo.DefaultGenConfig()
	cfg.Seed = seed
	cfg.Destinations = destinations
	sc := topo.Generate(cfg)
	return NewSession(netsim.NewTransport(sc.Net)), sc.Dests
}

// PairResult is the outcome of one side-by-side measurement: both routes,
// and every loop and cycle of the classic one with its cause attributed
// against the Paris one (anomaly.PairClass; ParisOnly counts the loops only
// Paris saw).
type PairResult struct {
	Paris, Classic *tracer.Route
	anomaly.PairClass
}

// MeasurePair runs the paper's two-step measurement toward dest — a Paris
// traceroute with an unchanging five-tuple, then a classic traceroute — and
// classifies the anomalies.
func (s *Session) MeasurePair(dest netip.Addr) (*PairResult, error) {
	var hints measure.PathHints
	p, err := s.prober.MeasurePair(dest, s.pairs, &hints)
	s.pairs++
	if err != nil {
		return nil, err
	}
	return &PairResult{Paris: p.Paris, Classic: p.Classic, PairClass: anomaly.ClassifyPair(p.Classic, p.Paris)}, nil
}

// NewParisUDP returns the Paris traceroute engine (UDP probing, constant
// flow identifier, checksum-coded probe IDs) over any transport.
func NewParisUDP(tp tracer.Transport, opts tracer.Options) tracer.Tracer {
	return tracer.NewParisUDP(tp, opts)
}

// NewClassicUDP returns the classic Jacobson traceroute engine (UDP
// probing, destination port varied per probe).
func NewClassicUDP(tp tracer.Transport, opts tracer.Options) tracer.Tracer {
	return tracer.NewClassicUDP(tp, opts)
}

// RunCampaign executes a paired classic/Paris measurement campaign and
// returns its anomaly statistics (see internal/measure for details). With
// cfg.Stream set the statistics are folded during the campaign in constant
// memory; otherwise every pair is retained and analyzed at the end — the
// two paths produce identical Stats.
func RunCampaign(tp tracer.Transport, cfg measure.Config) (*measure.Stats, error) {
	camp, err := measure.NewCampaign(tp, cfg)
	if err != nil {
		return nil, err
	}
	res, err := camp.Run()
	if err != nil {
		return nil, err
	}
	if res.Stats != nil {
		return res.Stats, nil
	}
	return measure.Analyze(res), nil
}
