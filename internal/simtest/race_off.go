//go:build !race

package simtest

const Race = false
