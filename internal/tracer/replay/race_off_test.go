//go:build !race

package replay_test

const raceBuild = false
