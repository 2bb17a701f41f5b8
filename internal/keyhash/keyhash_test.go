package keyhash

import (
	"hash/fnv"
	"testing"
)

// TestMix64IsSplitMix64: stepping a state by Golden64 and finalising it is
// the published generator — the first three outputs from seed 0 are the
// reference implementation's.
func TestMix64IsSplitMix64(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var state uint64
	for i, w := range want {
		if got := Mix64(state); got != w {
			t.Errorf("output %d: %#x, want %#x", i, got, w)
		}
		state += Golden64
	}
}

// TestFNV1aMatchesHashFNV: from FNVOffset64 the fold is hash/fnv's New64a,
// and folding in two pieces equals folding at once (callers key the hash by
// starting from a seeded state).
func TestFNV1aMatchesHashFNV(t *testing.T) {
	for _, s := range []string{"", "a", "paris traceroute", "\x00\xff\x10\x20"} {
		ref := fnv.New64a()
		ref.Write([]byte(s))
		if got := FNV1a(FNVOffset64, []byte(s)); got != ref.Sum64() {
			t.Errorf("FNV1a(%q) = %#x, want %#x", s, got, ref.Sum64())
		}
		half := len(s) / 2
		if got := FNV1a(FNV1a(FNVOffset64, []byte(s[:half])), []byte(s[half:])); got != ref.Sum64() {
			t.Errorf("FNV1a(%q) in two pieces = %#x, want %#x", s, got, ref.Sum64())
		}
	}
}
