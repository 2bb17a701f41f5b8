//go:build !race

package costs

const Race = false
