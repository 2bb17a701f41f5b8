package replay

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/tracer/flowkey"
)

// table maps flow keys to entries numbered 0, 1, 2, … in insertion order,
// by linear probing on a 64-bit hash of the key (hashKey) that its caller
// computes, so a loader can hash on one goroutine and look up on another.
// A slot holds the top 32 bits of its key's hash and entry+1 (0: empty).
// The hash bits select the slot and screen out most non-matching keys
// without touching them; a key whose bits match is confirmed against the
// stored key, so a collision costs one comparison and never a wrong answer.
//
// The index of a slot is the top bits of the hash, which the slot itself
// keeps, so growing re-places the slots without rehashing or reading a key.
type table struct {
	slots []uint64
	shift uint // 64 minus log2(len(slots))
	keys  chunked[flowkey.Key]
}

// find returns k's entry, or -1. h must be hashKey(k).
func (tb *table) find(k *flowkey.Key, h uint64) int32 {
	if len(tb.slots) == 0 {
		return -1
	}
	mask := len(tb.slots) - 1
	for i := int(h >> tb.shift); ; i = (i + 1) & mask {
		s := tb.slots[i]
		if s == 0 {
			return -1
		}
		if s>>32 == h>>32 && *tb.keys.at(int32(uint32(s) - 1)) == *k {
			return int32(uint32(s) - 1)
		}
	}
}

// insert returns k's entry, adding k as the next entry if it is new, and
// reports whether it was. h must be hashKey(k); bound bounds the entries
// still to come (see chunked.add).
func (tb *table) insert(k *flowkey.Key, h uint64, bound int) (entry int32, added bool) {
	if 4*(int(tb.keys.n)+1) > 3*len(tb.slots) {
		tb.grow()
	}
	mask := len(tb.slots) - 1
	for i := int(h >> tb.shift); ; i = (i + 1) & mask {
		s := tb.slots[i]
		if s == 0 {
			entry = tb.keys.add(bound)
			*tb.keys.at(entry) = *k
			tb.slots[i] = h>>32<<32 | uint64(entry+1)
			return entry, true
		}
		if s>>32 == h>>32 && *tb.keys.at(int32(uint32(s) - 1)) == *k {
			return int32(uint32(s) - 1), false
		}
	}
}

// grow doubles the slots (to 64 from none), keeping the load at most 3/4.
func (tb *table) grow() {
	n := max(2*len(tb.slots), 64)
	old := tb.slots
	tb.slots = make([]uint64, n)
	tb.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := int(s >> 32 << 32 >> tb.shift)
		for tb.slots[i] != 0 {
			i = (i + 1) & mask
		}
		tb.slots[i] = s
	}
}

// hashKey mixes the 20 bytes of a flow key into 64 bits with two rounds of
// a 128-bit multiply folded onto itself (wyhash's mixing step), so that
// every output bit depends on every input bit: the table indexes by the top
// bits and screens by the next ones.
func hashKey(k *flowkey.Key) uint64 {
	addrs := uint64(binary.LittleEndian.Uint32(k.Src[:]))<<32 | uint64(binary.LittleEndian.Uint32(k.Dst[:]))
	transport := binary.LittleEndian.Uint64(k.T[:])
	rest := uint64(k.Kind)<<24 | uint64(k.Proto)<<16 | uint64(k.IPID)
	return mix(mix(addrs^0xa0761d6478bd642f, transport^0xe7037ed1a0b428db)^rest, 0x8ebc6af09c88c6e3)
}

func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}
