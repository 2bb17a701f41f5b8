//go:build race

package replay_test

// raceBuild gates the allocation pin: the race detector's instrumentation
// allocates on its own account.
const raceBuild = true
