//go:build race

package costs

// Race reports whether the race detector is built in: its instrumentation
// allocates on its own account, so under it Check holds only the rows that
// carry a race ceiling.
const Race = true
