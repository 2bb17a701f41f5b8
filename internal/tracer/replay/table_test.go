package replay

import (
	"testing"

	"repro/internal/tracer/flowkey"
)

// TestTableCollisions holds the table to its promise that a hash collision
// costs speed and never a wrong answer: keys that share their whole hash, or
// only the bits that pick their slot, still get entries of their own, find
// each other never, and survive every growth of the slots.
func TestTableCollisions(t *testing.T) {
	key := func(i int) flowkey.Key {
		return flowkey.Key{Kind: flowkey.KindQuoted, Dst: [4]byte{10, 0, byte(i >> 8), byte(i)}, IPID: uint16(i)}
	}
	for _, c := range []struct {
		name string
		hash func(i int) uint64
	}{
		{"whole-hash", func(int) uint64 { return 0xdeadbeef << 32 }},
		{"slot-bits", func(i int) uint64 { return 7<<58 | uint64(i) }},
		{"four-hashes", func(i int) uint64 { return uint64(i%4) << 61 }},
		{"hashKey", func(i int) uint64 { k := key(i); return hashKey(&k) }},
	} {
		var tb table
		const n = 3000
		for i := range n {
			k := key(i)
			if e, added := tb.insert(&k, c.hash(i), n-i); !added || e != int32(i) {
				t.Fatalf("%s: key %d inserted as entry %d (added %v), want a new entry %d", c.name, i, e, added, i)
			}
		}
		for i := range n {
			k := key(i)
			if e := tb.find(&k, c.hash(i)); e != int32(i) {
				t.Fatalf("%s: key %d found as entry %d", c.name, i, e)
			}
			if e, added := tb.insert(&k, c.hash(i), 0); added || e != int32(i) {
				t.Fatalf("%s: key %d inserted again as entry %d (added %v)", c.name, i, e, added)
			}
			absent := key(n + i)
			if e := tb.find(&absent, c.hash(i)); e != -1 {
				t.Fatalf("%s: absent key %d found as entry %d", c.name, n+i, e)
			}
		}
	}
}
