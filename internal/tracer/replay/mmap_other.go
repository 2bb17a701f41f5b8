//go:build !(linux || darwin)

package replay

import "os"

// mapFile reads the file at path whole: this platform's build maps nothing.
func mapFile(path string) ([]byte, error) { return os.ReadFile(path) }

// unmap leaves the bytes to the collector.
func unmap([]byte) {}
