//go:build !linux

package live

import (
	"fmt"
	"net/netip"
	"runtime"
)

// dialRaw fails off Linux: the raw-socket layer is Linux-only. The rest of
// the package — everything above the PacketConn seam — compiles and tests
// everywhere through Config.Conn.
func dialRaw() (PacketConn, error) {
	return nil, fmt.Errorf("live: raw-socket probing unsupported on %s", runtime.GOOS)
}

// LocalIPv4 is unavailable off Linux.
func LocalIPv4() (netip.Addr, error) {
	return netip.Addr{}, fmt.Errorf("live: unsupported on %s", runtime.GOOS)
}
