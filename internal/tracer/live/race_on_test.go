//go:build race

package live

// raceBuild gates the allocation pins: the race detector's instrumentation
// allocates on its own account.
const raceBuild = true
