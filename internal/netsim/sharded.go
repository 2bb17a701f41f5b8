package netsim

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"repro/internal/tracer"
)

// ShardedTransport fans probes out over several fully independent Network
// shards, implementing the tracer Transport contract over all of them at
// once. Each probe is dispatched to the shard owning its destination by one
// read of an immutable map keyed by the destination's four bytes — no lock,
// no atomic, no shared counter sits on the dispatch path, so shards never
// contend with each other and the only synchronization a probe ever sees is
// its own shard's read lock.
//
// The shard map and the shard slice are frozen at construction; a router or
// host belongs to exactly one shard, and addresses outside the probe's own
// shard are unroutable by construction (the probe is dispatched to its
// destination's shard and can only traverse routers registered there).
// Destinations missing from the map dispatch to shard 0, where — unless
// shard 0 happens to route them — they fail exactly like any unroutable
// address.
type ShardedTransport struct {
	shards  []*Transport
	shardOf map[uint32]int // by a4 of the destination
	source  netip.Addr
}

// NewShardedTransport wraps one Transport per shard network. shardOf maps
// each destination address to the index of the shard that routes it; it is
// converted once, here, to the four-byte keys dispatch hashes. All shards
// must share the same measurement source address — the tracers see one
// source, many networks.
func NewShardedTransport(nets []*Network, shardOf map[netip.Addr]int) *ShardedTransport {
	if len(nets) == 0 {
		panic("netsim: NewShardedTransport needs at least one shard")
	}
	t := &ShardedTransport{
		shards:  make([]*Transport, len(nets)),
		shardOf: make(map[uint32]int, len(shardOf)),
		source:  nets[0].Source(),
	}
	for i, n := range nets {
		if src := n.Source(); src != t.source {
			panic(fmt.Sprintf("netsim: shard %d source %v differs from shard 0 source %v", i, src, t.source))
		}
		t.shards[i] = NewTransport(n)
	}
	for a, s := range shardOf {
		if s < 0 || s >= len(nets) {
			panic(fmt.Sprintf("netsim: destination %v mapped to shard %d of %d", a, s, len(nets)))
		}
		if k, ok := a4(a); ok { // a probe's destination field holds nothing else
			t.shardOf[k] = s
		}
	}
	return t
}

// Exchange implements the tracer Transport contract: it reads the probe's
// destination address straight from the serialized IPv4 header and hands
// the probe to that destination's shard.
func (t *ShardedTransport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	return t.shards[t.shardIdx(probe)].Exchange(probe)
}

// shardIdx maps a serialized probe to the shard owning its destination.
func (t *ShardedTransport) shardIdx(probe []byte) int {
	if len(probe) >= 20 {
		if s, ok := t.shardOf[binary.BigEndian.Uint32(probe[16:20])]; ok {
			return s
		}
	}
	return 0
}

// shardScratch is the pooled grouping state of a mixed-shard batch: the
// per-shard position lists and the sub-batch probe/result slices.
type shardScratch struct {
	idxs   [][]int
	probes [][]byte
	res    []tracer.ProbeResult
}

var shardScratchPool = sync.Pool{New: func() any { return new(shardScratch) }}

// ExchangeBatch implements the tracer BatchTransport contract over the
// shards: the batch is grouped by destination shard and fanned out as one
// sub-batch per shard, preserving submission order within each shard (the
// order that fixes each shard's probe-counter block). The common case — a
// TTL ladder toward a single destination, hence a single shard — dispatches
// directly with no grouping at all.
func (t *ShardedTransport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	if len(out) < len(probes) {
		panic("netsim: ExchangeBatch result slice shorter than probe slice")
	}
	if len(probes) == 0 {
		return
	}
	// Each probe's shard is looked up once: the scan for the first probe
	// that leaves probes[0]'s shard stops there, and grouping resumes there.
	first := t.shardIdx(probes[0])
	split, other := len(probes), first
	for i := 1; i < len(probes); i++ {
		if s := t.shardIdx(probes[i]); s != first {
			split, other = i, s
			break
		}
	}
	if split == len(probes) {
		t.shards[first].ExchangeBatch(probes, out[:len(probes)])
		return
	}

	sc := shardScratchPool.Get().(*shardScratch)
	for len(sc.idxs) < len(t.shards) {
		sc.idxs = append(sc.idxs, nil)
	}
	idxs := sc.idxs[:len(t.shards)]
	for s := range idxs {
		idxs[s] = idxs[s][:0]
	}
	for i := 0; i < split; i++ {
		idxs[first] = append(idxs[first], i)
	}
	idxs[other] = append(idxs[other], split)
	for i := split + 1; i < len(probes); i++ {
		s := t.shardIdx(probes[i])
		idxs[s] = append(idxs[s], i)
	}
	for s, list := range idxs {
		if len(list) == 0 {
			continue
		}
		sc.probes = sc.probes[:0]
		for len(sc.res) < len(list) {
			sc.res = append(sc.res, tracer.ProbeResult{})
		}
		res := sc.res[:len(list)]
		for j, i := range list {
			sc.probes = append(sc.probes, probes[i])
			// Move the caller's buffer into the sub-batch slot so it
			// is recycled rather than reallocated.
			res[j] = tracer.ProbeResult{Resp: out[i].Resp[:0:cap(out[i].Resp)]}
		}
		t.shards[s].ExchangeBatch(sc.probes, res)
		for j, i := range list {
			out[i] = res[j]
			res[j] = tracer.ProbeResult{}
		}
	}
	// Drop probe references so the pool does not pin caller buffers —
	// over the full capacity, since earlier (larger) shard groups may
	// have left pointers beyond the last group's truncated length.
	clear(sc.probes[:cap(sc.probes)])
	sc.probes = sc.probes[:0]
	shardScratchPool.Put(sc)
}

// Source implements the tracer Transport contract. The source address is
// cached at construction, keeping the dispatch path free of the per-shard
// topology locks.
func (t *ShardedTransport) Source() netip.Addr { return t.source }
