package replay_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/pcap"
	"repro/internal/tracer"
	"repro/internal/tracer/replay"
)

// FuzzReplayServe drives arbitrary capture bytes through the load Open runs
// and through serving, with a probe sequence drawn from the capture's own
// outbound records: each byte of seq picks a record (b>>1) and a path (b&1:
// the one-probe ExchangeErr or ExchangeBatch). Whatever the input, nothing
// panics, the exchanges not yet served are exactly the Leftover count, and
// a flow drained of its exchanges answers only with the loud error. The
// seeds are the corpus captures cut to their first records, small enough
// for the mutator to work on.
func FuzzReplayServe(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.pcap"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus captures: %v", err)
	}
	for _, p := range paths {
		_, recs := readCapture(f, p)
		f.Add(encode(f, recs[:min(len(recs), 40)]), []byte{0, 1, 2, 3, 0, 1, 64, 65, 255})
	}
	f.Fuzz(func(t *testing.T, capture, seq []byte) {
		rt, err := replay.Load(capture, replay.Config{})
		if err != nil {
			return
		}
		// A capture that loads frames cleanly, and loads as the reference
		// reconstructs it.
		recs, err := pcap.ReadAll(bytes.NewReader(capture))
		if err != nil {
			t.Fatalf("loaded a capture pcap cannot read: %v", err)
		}
		checkReference(t, rt, recs, replay.Config{})
		var probes [][]byte
		for _, r := range recs {
			if probeFrom(r.Data, rt.Source()) {
				probes = append(probes, r.Data)
			}
		}
		served := 0
		out := make([]tracer.ProbeResult, 1)
		serve := func(p []byte, batch bool) (resp []byte, ok bool, err error) {
			if batch {
				rt.ExchangeBatch([][]byte{p}, out)
				resp, ok, err = out[0].Resp, out[0].OK, out[0].Err
			} else {
				resp, _, ok, err = rt.ExchangeErr(p)
			}
			if err == nil {
				served++
			}
			return resp, ok, err
		}
		var used [][]byte
		for _, b := range seq {
			if len(probes) == 0 {
				break
			}
			p := probes[int(b>>1)%len(probes)]
			serve(p, b&1 == 1)
			if len(used) < 16 {
				used = append(used, p)
			}
		}
		if l := rt.Leftover(); l != rt.Exchanges()-served || l < 0 {
			t.Fatalf("Leftover %d, want Exchanges %d - served %d, and never negative", l, rt.Exchanges(), served)
		}
		// Every call pops one exchange of the probe's flow while any is
		// left, so after Exchanges() calls the flow is drained for good.
		for i, p := range used {
			for range rt.Exchanges() {
				serve(p, i%2 == 1)
			}
			if resp, ok, err := serve(p, i%2 == 0); err == nil || ok || len(resp) > 0 {
				t.Fatalf("drained flow answered: ok=%v, %d response bytes, err %v", ok, len(resp), err)
			}
		}
		if l := rt.Leftover(); l != rt.Exchanges()-served || l < 0 {
			t.Fatalf("after draining: Leftover %d, want Exchanges %d - served %d", l, rt.Exchanges(), served)
		}
	})
}
