package replay_test

import (
	"bytes"
	"net/netip"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/tracer/flowkey"
	"repro/internal/tracer/replay"
)

// reference reconstructs a capture the plain way — Go maps keyed by
// flowkey.Key, over the record slice, on one goroutine — and returns what a
// loaded Transport reports of it: its exchanges, its junk and its
// destinations in first-seen order. It is the oracle for the loader's
// hashed tables and its parse stage; recs must begin with a probe.
func reference(recs []pcap.Record, cfg replay.Config) (exchanges, junk int, dests []netip.Addr) {
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	type flow struct {
		tail, tx, run int
		lastTS        int64
	}
	type registration struct{ flow, exch int }
	var (
		h        packet.IPv4
		flows    []flow
		probes   [][]byte // per exchange
		answered []bool   // per exchange
		quoted   = map[flowkey.Key]int{}
		fifos    = map[flowkey.Key][]registration{}
		seen     = map[netip.Addr]bool{}
		run      = 0
		inbound  = true
	)
	packet.ParseIPv4Into(recs[0].Data, &h)
	src := h.Src
	bind := func(f *flow, exch int, ts int64) bool {
		if answered[exch] || ts-f.lastTS > int64(timeout) {
			return false
		}
		answered[exch] = true
		return true
	}
	for _, r := range recs {
		payload, err := packet.ParseIPv4Into(r.Data, &h)
		if err != nil {
			inbound = true
			junk++
			continue
		}
		if h.Src == src {
			if q, term, hasTerm, shaped := flowkey.ProbeKeysOf(&h, payload); shaped {
				if inbound {
					run++
					inbound = false
				}
				i, known := quoted[q]
				if !known {
					i = len(flows)
					quoted[q] = i
					flows = append(flows, flow{tail: -1})
					if d := netip.AddrFrom4(q.Dst); !seen[d] {
						seen[d] = true
						dests = append(dests, d)
					}
				}
				f := &flows[i]
				if f.tail >= 0 && !answered[f.tail] && f.tx < 1+cfg.Retries && bytes.Equal(probes[f.tail], r.Data) {
					f.tx, f.lastTS, f.run = f.tx+1, r.TS, run
					continue
				}
				probes, answered = append(probes, r.Data), append(answered, false)
				*f = flow{tail: len(probes) - 1, tx: 1, run: run, lastTS: r.TS}
				if hasTerm {
					fifos[term] = append(fifos[term], registration{i, f.tail})
				}
				continue
			}
		}
		inbound = true
		key, ok := flowkey.RespKeyOf(&h, payload)
		bound := false
		if ok && key.Kind == flowkey.KindQuoted {
			if i, known := quoted[key]; known {
				bound = bind(&flows[i], flows[i].tail, r.TS)
			}
		} else if ok {
			fifo := fifos[key]
			for j, reg := range fifo {
				f := &flows[reg.flow]
				if f.tail != reg.exch || answered[reg.exch] || f.run != run {
					continue
				}
				if bound = bind(f, reg.exch, r.TS); bound {
					fifos[key] = fifo[j:]
				}
				break
			}
		}
		if !bound {
			junk++
		}
	}
	return len(probes), junk, dests
}

// checkReference fails unless rt, loaded from recs under cfg, reports what
// the reference reconstruction does.
func checkReference(t testing.TB, rt *replay.Transport, recs []pcap.Record, cfg replay.Config) {
	t.Helper()
	exchanges, junk, dests := reference(recs, cfg)
	if rt.Exchanges() != exchanges || rt.Junk() != junk || !slices.Equal(rt.Destinations(), dests) {
		t.Fatalf("loaded %d exchanges, %d junk, destinations %v; the reference reconstructs %d, %d, %v",
			rt.Exchanges(), rt.Junk(), rt.Destinations(), exchanges, junk, dests)
	}
}

// TestLoadMatchesReference holds the loader to the reference on the lossy
// fixture — retransmits, stars and junk all on the path — whose records,
// captured from four workers, differ a little from run to run, and on every
// corpus capture at both retry budgets.
func TestLoadMatchesReference(t *testing.T) {
	_, path, _ := lossyCapture(t)
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.pcap"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus captures: %v", err)
	}
	for _, p := range append(paths, path) {
		raw, recs := readCapture(t, p)
		for _, cfg := range []replay.Config{{}, {Retries: loadRetries}} {
			checkReference(t, load(t, raw, cfg), recs, cfg)
		}
	}
}
