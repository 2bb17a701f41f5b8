package replay_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pcap"
	"repro/internal/simtest"
	"repro/internal/tracer"
	"repro/internal/tracer/replay"
)

// served is one exchange as a caller sees it: its response bytes and RTT.
// Two serves of one exchange compare equal, and two exchanges of one flow
// do not: each response carries its responder's IP ID, which advances with
// every response the responder sends (a star has no response and RTT 0).
type served struct {
	resp string
	rtt  time.Duration
}

// exchangeOne serves probe as a batch of one.
func exchangeOne(rt *replay.Transport, probe []byte) tracer.ProbeResult {
	out := make([]tracer.ProbeResult, 1)
	rt.ExchangeBatch([][]byte{probe}, out)
	return out[0]
}

// parisChain returns the first Paris UDP probe in recs, the records of the
// capture raw, whose flow chains one exchange per captured round, with that
// chain as a sequential drain of a fresh transport serves it. A Paris UDP probe's checksum is its probe
// identifier, the same value engine.wrap writes into the IP ID.
func parisChain(t *testing.T, raw []byte, recs []pcap.Record) ([]byte, []served) {
	t.Helper()
	rt := load(t, raw, replay.Config{Retries: loadRetries})
	src := rt.Source()
	for _, r := range recs {
		p := r.Data
		if !probeFrom(p, src) || len(p) < 28 || p[9] != 17 || p[4] != p[26] || p[5] != p[27] {
			continue
		}
		var chain []served
		for {
			r := exchangeOne(rt, p)
			if r.Err != nil {
				break
			}
			chain = append(chain, served{string(r.Resp), r.RTT})
		}
		if len(chain) == loadRounds {
			return p, chain
		}
	}
	t.Fatal("no Paris UDP flow in the capture chains one exchange per round")
	return nil, nil
}

// TestRacingPopsExactlyOnce races goroutines on one flow's head: every
// caller sends the same probe bytes, so every call pops the same chain.
// Each exchange must be served exactly once, whichever caller wins it, and
// the flow must then be exhausted as loudly as a sequential drain leaves it.
func TestRacingPopsExactlyOnce(t *testing.T) {
	const goroutines = 8
	_, path, _ := lossyCapture(t)
	raw, recs := readCapture(t, path)
	probe, chain := parisChain(t, raw, recs)

	// A second transport over the same bytes serves the same chain.
	rt := load(t, raw, replay.Config{Retries: loadRetries})
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		got   = make([][]served, goroutines)
	)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				r := exchangeOne(rt, probe)
				if r.Err != nil {
					return
				}
				got[g] = append(got[g], served{string(r.Resp), r.RTT})
			}
		}()
	}
	close(start)
	wg.Wait()

	want := make(map[served]int, len(chain))
	for _, s := range chain {
		want[s]++
	}
	n := 0
	for _, ss := range got {
		for _, s := range ss {
			n++
			if want[s]--; want[s] < 0 {
				t.Errorf("exchange %+v served more often than the capture holds it", s)
			}
		}
	}
	if n != len(chain) {
		t.Errorf("%d goroutines were served %d exchanges; the flow chains %d", goroutines, n, len(chain))
	}
	if err := exchangeOne(rt, probe).Err; err == nil || !strings.Contains(err.Error(), "not in capture") {
		t.Errorf("exhausted flow: err = %v, want the \"not in capture\" divergence error", err)
	}
	if l, untouched := rt.Leftover(), rt.Exchanges()-len(chain); l != untouched {
		t.Errorf("Leftover() = %d, want the %d exchanges of the untouched flows", l, untouched)
	}
}

// TestServeAllocs pins serving at zero allocations per matched probe: a
// warmed ExchangeBatch parses the probe's key on the stack, pops the head
// and copies the response into the caller's buffer. Heads are consumed, so
// a batch cannot be repeated as testing.AllocsPerRun would; the first
// captured round is served once, in batches, over a fresh transport, and
// the malloc count read around it at GOMAXPROCS 1. Another goroutine of the
// test binary can still allocate inside that window, so a nonzero count is
// retried on a fresh transport; an allocation on the serving path shows in
// every attempt.
func TestServeAllocs(t *testing.T) {
	if simtest.Race {
		t.Skip("the race detector allocates on its own account")
	}
	_, path, _ := lossyCapture(t)
	raw, recs := readCapture(t, path)
	var allocs uint64
	var matched int
	for attempt := 1; attempt <= 3; attempt++ {
		if allocs, matched = serveFirstRound(t, raw, recs); allocs == 0 {
			return
		}
	}
	t.Errorf("ExchangeBatch: %d allocations over %d matched probes, want 0", allocs, matched)
}

// serveFirstRound serves the first occurrence of every probe of the capture
// raw, whose records are recs, in batches of 16 and reports the allocations
// made after the first batch, and the probes they served.
func serveFirstRound(t *testing.T, raw []byte, recs []pcap.Record) (allocs uint64, matched int) {
	t.Helper()
	rt := load(t, raw, replay.Config{Retries: loadRetries})
	// Each flow's first outbound record is its head, so the first
	// occurrence of every distinct probe is one round's worth of matches.
	src := rt.Source()
	seen := make(map[string]bool)
	var round [][]byte
	for _, r := range recs {
		if probeFrom(r.Data, src) && !seen[string(r.Data)] {
			seen[string(r.Data)] = true
			round = append(round, r.Data)
		}
	}
	const batch = 16
	out := make([]tracer.ProbeResult, batch)
	for i := range out {
		out[i].Resp = make([]byte, 0, 1500)
	}
	serve := func(probes [][]byte) int {
		rt.ExchangeBatch(probes, out)
		for i := range probes {
			if out[i].Err != nil {
				t.Fatalf("probe %d of a captured round: %v", i, out[i].Err)
			}
		}
		return len(probes)
	}
	serve(round[:batch]) // warm-up
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := mallocs()
	for lo := batch; lo < len(round); lo += batch {
		matched += serve(round[lo:min(lo+batch, len(round))])
	}
	allocs = mallocs() - before
	if matched < 1000 {
		t.Fatalf("only %d probes served: too few for a per-probe pin to mean anything", matched)
	}
	return allocs, matched
}
