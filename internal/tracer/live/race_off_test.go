//go:build !race

package live

const raceBuild = false
