//go:build race

package daemon

// raceBuild gates the allocation pin: the race detector's instrumentation
// allocates on its own account.
const raceBuild = true
