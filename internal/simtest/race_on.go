//go:build race

package simtest

// Race reports whether the race detector is built in. It gates the
// allocation pins: the detector's instrumentation allocates on its own
// account.
const Race = true
