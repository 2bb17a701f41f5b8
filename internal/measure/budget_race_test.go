//go:build race

package measure

// pairAllocBudget is TestPairAllocBudget's ceiling under the race detector,
// where sync.Pool deliberately drops a quarter of what it is handed back and
// netsim keeps its per-batch state in pools: netsim's own share of a pair
// rises from none to about six allocations. The tracer's and this package's
// share is zero either way (tracer's TestTraceSteadyStateAllocs runs in the
// race job too), so the ceiling still catches a per-trace allocation coming
// back: two traces a pair, ten allocations a trace before this budget existed.
const pairAllocBudget = 9
