package replay_test

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestOpenUnmaps: a capture Open maps is unmapped once it is no longer
// needed — at once when Open refuses it, and when its Transport is
// collected otherwise — so twenty dropped Opens of one file leave no
// mapping of it in /proc/self/maps.
func TestOpenUnmaps(t *testing.T) {
	for _, c := range openCases(t) {
		open20(t, c)
		runtime.GC()
		runtime.GC()
		// The cleanups run on their own goroutine after the collection.
		for deadline := time.Now().Add(2 * time.Second); ; runtime.GC() {
			maps, err := os.ReadFile("/proc/self/maps")
			if err != nil {
				t.Fatal(err)
			}
			n := strings.Count(string(maps), c.path)
			if n == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d mappings of the capture left after 20 dropped opens", c.name, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
