//go:build !race

package measure

// pairAllocBudget is TestPairAllocBudget's ceiling, allocations per pair.
const pairAllocBudget = 3
