// Package anomaly implements the paper's three traceroute anomaly
// signatures — loops, cycles, and diamonds (Section 4) — and the cause
// classifier that attributes each instance using the observables Paris
// traceroute adds (probe TTL, response TTL, IP ID) plus classic-vs-Paris
// differencing.
//
// # Determinism and concurrency contract
//
// Every detector and the classifier are pure functions over the routes they
// are given: no package-level state, no randomness, no clock reads. The
// same routes always yield the same instances and the same causes, in the
// same order, which is what lets the measure package keep per-route
// detection on interned routes and still produce byte-identical statistics
// at any worker count.
//
// Two classifier rules read response IP IDs — zero-TTL forwarding and the
// forwarding-loop cycle's counter coherence — which differ on every
// exchange even along a stable path. So a cause is a fact about the route
// it was classified on: callers classify every pair against its own classic
// route (ClassifyLoopDetected, ClassifyCycleDetected) and never reuse a
// cause for another exchange, and which rules read per-exchange fields is
// known only here. All values are read-only to this package; nothing here
// mutates a Route, so concurrent analysis of distinct routes needs no
// synchronization.
package anomaly
