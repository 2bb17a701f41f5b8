// Package repro is a reproduction of "Avoiding traceroute anomalies with
// Paris traceroute" (Augustin et al., IMC 2006): the Paris traceroute probing
// technique, the classic tools it is compared against, the loop / cycle /
// diamond anomaly taxonomy with cause classification, and the paper's
// measurement study, run against a deterministic packet-level network
// simulator, raw sockets, or a capture of an earlier live run.
//
// The root package exports nothing. What runs is under cmd/ (the study, the
// single-trace tool, the daemon, the topology generator) and examples/
// (one miniature per paper section); docs/ holds the checkpoint, daemon, live
// and replay contracts, and the README lists the internal/ packages. The
// root's own tests are the paper's figure and statistic benchmarks
// (bench_test.go, figures_test.go) and the surface ledger (surface_test.go),
// which keeps every exported identifier of the module either used by another
// package or listed in testdata/surface.txt with a reason.
package repro
