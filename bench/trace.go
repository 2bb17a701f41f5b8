package main

import (
	"bufio"
	"encoding/json"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tracer"
)

// Span names. A round (or daemon tick) contains the exchange spans of its
// workers; under the mux a round also contains the conn.write and conn.read
// spans, which run under the mux lock on whichever goroutine holds it, and a
// conn.write contains the respond span of the simulator answering inside the
// bench conn. stats spans are the daemon's /stats requests.
const (
	spanRound = iota
	spanExchange
	spanConnWrite
	spanConnRead
	spanRespond
	spanStats
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"round", "exchange", "conn.write", "conn.read", "respond", "stats"}

// span is one recorded interval. Start and End are nanoseconds since the
// recorder's epoch; Round is the identifier every span of one round shares.
type span struct {
	ID, Parent int64
	Kind       uint8
	Worker     int16
	Round      int32
	Start, End int64
}

// maxSpansPerLane bounds a lane's memory; spans past it are counted, and
// still summed into the totals, but not kept.
const maxSpansPerLane = 4 << 20

// lane is one writer's span buffer. The mutex is uncontended except on the
// lanes several goroutines share (the daemon's transport, the bench conn).
type lane struct {
	mu    sync.Mutex
	spans []span
}

// recorder keeps spans in memory while a traced run measures. Until enable
// is called the wrappers pass straight through, which is how one run holds
// both an untraced reference phase and the traced phase that
// trace.overhead_frac compares.
type recorder struct {
	epoch   time.Time
	on      atomic.Bool
	nextID  atomic.Int64
	round   atomic.Int64 // identifier of the round span in progress
	roundNo atomic.Int32

	mu    sync.Mutex
	lanes []*lane
	// total[k] and count[k] sum span durations and spans per kind,
	// including those dropped by the per-lane cap.
	total [numSpanKinds]atomic.Int64
	count [numSpanKinds]atomic.Int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) newLane() *lane {
	l := &lane{}
	r.mu.Lock()
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// begin opens a span and returns its identifier and start time.
func (r *recorder) begin() (id int64, start time.Time) {
	return r.nextID.Add(1), time.Now()
}

// end closes a span opened by begin into lane l.
func (r *recorder) end(l *lane, kind uint8, worker int, id, parent int64, start time.Time) {
	now := time.Now()
	r.total[kind].Add(int64(now.Sub(start)))
	r.count[kind].Add(1)
	l.mu.Lock()
	if len(l.spans) < maxSpansPerLane {
		l.spans = append(l.spans, span{
			ID: id, Parent: parent, Kind: kind, Worker: int16(worker), Round: r.roundNo.Load(),
			Start: int64(start.Sub(r.epoch)), End: int64(now.Sub(r.epoch)),
		})
	}
	l.mu.Unlock()
}

// all returns every kept span, lane by lane.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, l := range r.lanes {
		l.mu.Lock()
		out = append(out, l.spans...)
		l.mu.Unlock()
	}
	return out
}

// writeJSONLines dumps the kept spans, one JSON object per line.
func (r *recorder) writeJSONLines(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.all() {
		err := enc.Encode(struct {
			ID, Parent int64
			Name       string
			Worker     int16
			Round      int32
			Start, End int64
		}{s.ID, s.Parent, spanNames[s.Kind], s.Worker, s.Round, s.Start, s.End})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedTransport wraps the transport handed to a campaign worker or the
// daemon: it counts exchange calls, probes and answers, and while the
// recorder is enabled records one exchange span per call. Every transport the
// binaries put on these paths batches, and some can fail; the wrapper offers
// all three transport interfaces over them.
type tracedTransport struct {
	inner  tracer.BatchTransport
	fall   tracer.FallibleTransport // nil when inner cannot fail
	rec    *recorder
	lane   *lane
	worker int

	calls, probes, answered atomic.Int64
}

var (
	_ tracer.BatchTransport    = (*tracedTransport)(nil)
	_ tracer.FallibleTransport = (*tracedTransport)(nil)
)

func newTracedTransport(inner tracer.BatchTransport, rec *recorder, worker int) *tracedTransport {
	t := &tracedTransport{inner: inner, rec: rec, lane: rec.newLane(), worker: worker}
	t.fall, _ = inner.(tracer.FallibleTransport)
	return t
}

func (t *tracedTransport) Source() netip.Addr { return t.inner.Source() }

func (t *tracedTransport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	resp, rtt, ok, _ := t.ExchangeErr(probe)
	return resp, rtt, ok
}

func (t *tracedTransport) ExchangeErr(probe []byte) (resp []byte, rtt time.Duration, ok bool, err error) {
	on := t.rec.enabled()
	var id int64
	var start time.Time
	if on {
		id, start = t.rec.begin()
	}
	if t.fall != nil {
		resp, rtt, ok, err = t.fall.ExchangeErr(probe)
	} else {
		resp, rtt, ok = t.inner.Exchange(probe)
	}
	if on {
		t.rec.end(t.lane, spanExchange, t.worker, id, t.rec.round.Load(), start)
	}
	t.calls.Add(1)
	t.probes.Add(1)
	if ok {
		t.answered.Add(1)
	}
	return resp, rtt, ok, err
}

func (t *tracedTransport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	on := t.rec.enabled()
	var id int64
	var start time.Time
	if on {
		id, start = t.rec.begin()
	}
	t.inner.ExchangeBatch(probes, out)
	if on {
		t.rec.end(t.lane, spanExchange, t.worker, id, t.rec.round.Load(), start)
	}
	answered := 0
	for i := range probes {
		if out[i].OK {
			answered++
		}
	}
	t.calls.Add(1)
	t.probes.Add(int64(len(probes)))
	t.answered.Add(int64(answered))
}
