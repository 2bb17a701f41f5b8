// Package repro is a reproduction of "Avoiding traceroute anomalies with
// Paris traceroute" (Augustin et al., IMC 2006): the Paris traceroute probing
// technique, the classic tools it is compared against, the loop / cycle /
// diamond anomaly taxonomy with cause classification, and the paper's
// measurement study, run against a deterministic packet-level network
// simulator, raw sockets, or a capture of an earlier live run.
//
// The root package exports nothing. What runs is under cmd/ (the study, the
// single-trace tool, the daemon, the topology generator); one miniature per
// paper section is an Example function of the package it demonstrates
// (tracer, anomaly, measure). docs/ holds the checkpoint, daemon, live and
// replay contracts, and the README lists the internal/ packages. The
// root's own tests are the paper's figure and statistic benchmarks
// (bench_test.go, figures_test.go) and two ledgers (surface_test.go): one
// keeps every exported identifier of the module either used by another
// package or listed in testdata/surface.txt with a reason, and one keeps
// each "one X" decision (one TTL ladder, one live transport, one front end,
// one run state, one attribution rule, one origin) to the callers
// testdata/callsites.txt lists for its primitives.
package repro
