//go:build !race

package daemon

const raceBuild = false
