//go:build !linux || !(amd64 || arm64)

package live

import (
	"fmt"
	"net/netip"
	"runtime"
)

// dialRaw fails off linux/amd64 and linux/arm64: the raw-socket layer is
// built for those two only. The rest of the package — everything above the
// PacketConn seam — compiles and tests everywhere through Config.Conn.
func dialRaw() (PacketConn, error) {
	return nil, fmt.Errorf("live: raw-socket probing unsupported on %s/%s", runtime.GOOS, runtime.GOARCH)
}

// LocalIPv4 is unavailable where dialRaw is.
func LocalIPv4() (netip.Addr, error) {
	return netip.Addr{}, fmt.Errorf("live: unsupported on %s/%s", runtime.GOOS, runtime.GOARCH)
}
