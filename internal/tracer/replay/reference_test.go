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

// reconstruction is what the reference makes of a capture: every exchange
// in the order its first transmission was captured, the records bound to
// none, and the destinations in first-seen order.
type reconstruction struct {
	exchanges []refExchange
	junk      int
	dests     []netip.Addr
}

// refExchange is one exchange as serving it must answer: the probe bytes it
// matches, and its response and RTT (a star has neither).
type refExchange struct {
	probe, resp []byte
	rtt         time.Duration
}

// reference reconstructs a capture the plain way — Go maps keyed by
// flowkey.Key, over the record slice, on one goroutine. It is the oracle for
// the loader's hashed tables and its parse stage, and for what serving
// reads back from the capture; recs must begin with a probe.
func reference(recs []pcap.Record, cfg replay.Config) (ref reconstruction) {
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
		h       packet.IPv4
		flows   []flow
		x       = &ref.exchanges
		quoted  = map[flowkey.Key]int{}
		fifos   = map[flowkey.Key][]registration{}
		seen    = map[netip.Addr]bool{}
		run     = 0
		inbound = true
	)
	packet.ParseIPv4Into(recs[0].Data, &h)
	src := h.Src
	bind := func(f *flow, exch int, r pcap.Record) bool {
		e := &(*x)[exch]
		if e.resp != nil || r.TS-f.lastTS > int64(timeout) {
			return false
		}
		e.resp, e.rtt = r.Data, time.Duration(r.TS-f.lastTS)
		return true
	}
	for _, r := range recs {
		payload, err := packet.ParseIPv4Into(r.Data, &h)
		if err != nil {
			inbound = true
			ref.junk++
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
						ref.dests = append(ref.dests, d)
					}
				}
				f := &flows[i]
				if f.tail >= 0 && (*x)[f.tail].resp == nil && f.tx < 1+cfg.Retries && bytes.Equal((*x)[f.tail].probe, r.Data) {
					f.tx, f.lastTS, f.run = f.tx+1, r.TS, run
					continue
				}
				*x = append(*x, refExchange{probe: r.Data})
				*f = flow{tail: len(*x) - 1, tx: 1, run: run, lastTS: r.TS}
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
				bound = bind(&flows[i], flows[i].tail, r)
			}
		} else if ok {
			fifo := fifos[key]
			for j, reg := range fifo {
				f := &flows[reg.flow]
				if f.tail != reg.exch || (*x)[reg.exch].resp != nil || f.run != run {
					continue
				}
				if bound = bind(f, reg.exch, r); bound {
					fifos[key] = fifo[j:]
				}
				break
			}
		}
		if !bound {
			ref.junk++
		}
	}
	return ref
}

// checkReference fails unless rt, loaded from recs under cfg, reports what
// the reference reconstruction does, and returns the reconstruction.
func checkReference(t testing.TB, rt *replay.Transport, recs []pcap.Record, cfg replay.Config) reconstruction {
	t.Helper()
	ref := reference(recs, cfg)
	if rt.Exchanges() != len(ref.exchanges) || rt.Junk() != ref.junk || !slices.Equal(rt.Destinations(), ref.dests) {
		t.Fatalf("loaded %d exchanges, %d junk, destinations %v; the reference reconstructs %d, %d, %v",
			rt.Exchanges(), rt.Junk(), rt.Destinations(), len(ref.exchanges), ref.junk, ref.dests)
	}
	return ref
}

// checkServe serves every exchange of ref from rt, a fresh transport loaded
// from the same capture, and fails unless each is answered as the reference
// answers it, response bytes and RTT to the nanosecond, and none is left.
// The exchanges go in capture order, so each flow's chain is popped in its
// own order.
func checkServe(t testing.TB, rt *replay.Transport, ref reconstruction) {
	t.Helper()
	for i, x := range ref.exchanges {
		r := exchangeOne(rt, x.probe)
		if r.Err != nil || r.OK != (x.resp != nil) || !bytes.Equal(r.Resp, x.resp) || r.RTT != x.rtt {
			t.Fatalf("exchange %d served ok=%v, %d response bytes, RTT %v, err %v; the reference answers ok=%v, %d bytes, RTT %v",
				i, r.OK, len(r.Resp), r.RTT, r.Err, x.resp != nil, len(x.resp), x.rtt)
		}
	}
	if l := rt.Leftover(); l != 0 {
		t.Fatalf("%d exchanges left after serving all %d the reference reconstructs", l, len(ref.exchanges))
	}
}

// TestLoadMatchesReference holds the loader, and a full serve of what it
// loaded, to the reference on the lossy fixture — retransmits, stars and
// junk all on the path — whose records, captured from four workers, differ a
// little from run to run; on the fixture re-encoded in each of the four pcap
// dialects, each against the reference built from that same file (a
// microsecond capture's RTTs are differences of truncated timestamps); and
// on every corpus capture; each at both retry budgets.
func TestLoadMatchesReference(t *testing.T) {
	_, path, _ := lossyCapture(t)
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.pcap"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus captures: %v", err)
	}
	captures := map[string][]byte{}
	for _, p := range append(paths, path) {
		captures[filepath.Base(p)], _ = readCapture(t, p)
	}
	_, recs := readCapture(t, path)
	for _, d := range dialects {
		captures[d.String()+"-"+filepath.Base(path)] = encode(recs, d)
	}
	for name, raw := range captures {
		t.Run(name, func(t *testing.T) {
			recs, err := pcap.ReadAll(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []replay.Config{{}, {Retries: loadRetries}} {
				ref := checkReference(t, load(t, raw, cfg), recs, cfg)
				checkServe(t, load(t, raw, cfg), ref)
			}
		})
	}
}
