package live

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer"
	"repro/internal/tracer/flowkey"
)

// Table invariants and the attribution boundary of the shared mux: what the
// registration table may hold once every exchange has returned (nothing),
// what an exchange may allocate on the mux side once its handle is warm
// (nothing), and what a datagram must look like before the table credits it
// to a probe (its key byte-equal to one of that very probe's).

// assertMuxDrained checks the table invariant every test ends on: with no
// exchange in progress nothing is registered, nothing is in flight and
// nobody holds the reader role. No reference may outlive its batch.
func assertMuxDrained(t *testing.T, m *Mux) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.byKey) != 0 || len(m.batches) != 0 || m.inFlight != 0 || m.reader != nil {
		t.Errorf("mux not drained: %d keys, %d batches, %d probes in flight, reader held: %v",
			len(m.byKey), len(m.batches), m.inFlight, m.reader != nil)
	}
}

// ladderRecorder is a netsim transport that keeps the first window a tracer
// submits through it, probes and answers.
type ladderRecorder struct {
	*netsim.Transport
	probes  [][]byte
	answers map[string][]byte
}

func (r *ladderRecorder) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	r.Transport.ExchangeBatch(probes, out)
	if r.probes != nil {
		return
	}
	for i, p := range probes {
		r.probes = append(r.probes, append([]byte(nil), p...))
		if out[i].OK {
			r.answers[string(p)] = append([]byte(nil), out[i].Resp...)
		}
	}
}

// recordLadder returns the n probes of discipline mk's first window toward
// destination di of the default topology, and netsim's answer to each,
// keyed by probe bytes.
func recordLadder(tb testing.TB, mk func(tracer.Transport, tracer.Options) tracer.Tracer, di, n int) (src netip.Addr, probes [][]byte, answers map[string][]byte) {
	tb.Helper()
	return recordLadderIn(tb, muxTopo(tb, 8, 47), mk, di, n)
}

// recordLadderIn is recordLadder over a topology of the caller's.
func recordLadderIn(tb testing.TB, sc *topo.Scenario, mk func(tracer.Transport, tracer.Options) tracer.Tracer, di, n int) (src netip.Addr, probes [][]byte, answers map[string][]byte) {
	tb.Helper()
	rec := &ladderRecorder{Transport: netsim.NewTransport(sc.Net), answers: make(map[string][]byte)}
	if _, err := mk(rec, tracer.Options{Batch: true, PathHint: n}).Trace(sc.Dests[di]); err != nil {
		tb.Fatal(err)
	}
	if len(rec.probes) != n || len(rec.answers) != n {
		tb.Fatalf("recorded %d probes and %d answers, want %d of each", len(rec.probes), len(rec.answers), n)
	}
	return sc.Net.Source(), rec.probes, rec.answers
}

// loopConn answers every written probe at once from a table of recorded
// answers and allocates nothing once its queue has grown: the conn under
// the mux-side allocation pin and BenchmarkMuxExchange. A read that finds
// nothing reports a timeout, the virtual clock of the other fakes.
type loopConn struct {
	mu      sync.Mutex
	answers map[string][]byte
	queue   [][]byte
	head    int
}

func (c *loopConn) WriteBatch(dgs []Datagram) (int, error) {
	c.mu.Lock()
	for i := range dgs {
		if a, ok := c.answers[string(dgs[i].Buf)]; ok {
			c.queue = append(c.queue, a)
		}
	}
	c.mu.Unlock()
	return len(dgs), nil
}

func (c *loopConn) ReadBatch(dgs []Datagram) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for ; n < len(dgs) && c.head < len(c.queue); n++ {
		dgs[n].N = copy(dgs[n].Buf, c.queue[c.head])
		c.head++
	}
	if c.head == len(c.queue) {
		c.queue, c.head = c.queue[:0], 0
	}
	if n == 0 {
		return 0, ErrTimeout
	}
	return n, nil
}

func (c *loopConn) SetReadDeadline(time.Time) error { return nil }
func (c *loopConn) Close() error                    { return nil }

var ladderDisciplines = []struct {
	name string
	mk   func(tracer.Transport, tracer.Options) tracer.Tracer
}{
	{"paris-udp", tracer.NewParisUDP},
	{"paris-icmp", tracer.NewParisICMP},
	{"paris-tcp", tracer.NewParisTCP},
}

// TestMuxExchangeAllocs reads the row live/mux-exchange-allocs of
// testdata/costs.txt: the mux side of a warmed exchange, one handle and a
// 16-probe ladder per ExchangeBatch, the most of a discipline with one key
// per probe (UDP) and two with a terminal key as well (ICMP, TCP), each a
// subtest.
func TestMuxExchangeAllocs(t *testing.T) {
	rows := costs.Rows{}
	for _, d := range ladderDisciplines {
		t.Run(d.name, func(t *testing.T) {
			src, probes, answers := recordLadder(t, d.mk, 0, 16)
			m := openFakeMux(t, MuxConfig{Source: src, Conn: &loopConn{answers: answers}})
			tp := m.Transport()
			out := make([]tracer.ProbeResult, len(probes))
			exchange := func() {
				tp.ExchangeBatch(probes, out)
				for i := range out {
					if !out[i].OK {
						t.Fatalf("probe %d unanswered: %+v", i, out[i])
					}
				}
			}
			worst := rows["live/mux-exchange-allocs"]
			// exchange warms the handle's batch, the estimator, the result buffers.
			rows.Allocs("live/mux-exchange-allocs", 200, exchange, func() {
				for range 200 {
					exchange()
				}
			})
			rows["live/mux-exchange-allocs"] = max(worst, rows["live/mux-exchange-allocs"])
			assertMuxDrained(t, m)
		})
	}
	rows.Check(t)
}

// TestMuxSharedKeyTableDrains runs the one discipline whose probes share a
// table entry — tcptraceroute's constant sequence number puts a whole
// ladder's terminal keys in one FIFO — from four workers with every
// response duplicated and delivered newest first. Which probe a RST is
// credited to is then the FIFO rule's choice, not the simulator's, so the
// routes are not compared; the table must still come back empty, spill
// slices and all.
func TestMuxSharedKeyTableDrains(t *testing.T) {
	sc := muxTopo(t, 8, 53)
	fake := &SimConn{Respond: simtest.Responder(sc.Net),
		Sched: SimSchedule{Reorder: true, Dup: func(int, []byte) bool { return true }}}
	m := openFakeMux(t, MuxConfig{Source: sc.Net.Source(), Conn: fake, Retries: 1})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := tracer.NewTCPTraceroute(m.Transport(), tracer.Options{Batch: true})
			for _, d := range sc.Dests[2*w : 2*w+2] {
				if _, err := tr.Trace(d); err != nil {
					t.Errorf("dest %v: %v", d, err)
				}
			}
		}(w)
	}
	wg.Wait()
	assertMuxDrained(t, m)
}

// dispatchConn puts several batches in flight in a fixed order: its first
// read, made by the worker that exchanged first and so holds the reader
// role, starts the other workers one by one, each once the one before has
// written its probes; then it delivers the datagrams under test in one
// sweep and reports timeouts from then on, which stars whatever was left
// unanswered. The fixed order keeps the fuzz target's coverage a function
// of its input.
type dispatchConn struct {
	mu      sync.Mutex
	wrote   *sync.Cond
	written int
	others  []func() // each exchanges one more batch; started by the first read
	wg      sync.WaitGroup
	deliver [][]byte
}

func (c *dispatchConn) WriteBatch(dgs []Datagram) (int, error) {
	c.mu.Lock()
	c.written += len(dgs)
	c.wrote.Broadcast()
	c.mu.Unlock()
	return len(dgs), nil
}

func (c *dispatchConn) ReadBatch(dgs []Datagram) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, exchange := range c.others {
		before := c.written
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			exchange()
		}()
		for c.written == before {
			c.wrote.Wait()
		}
	}
	c.others = nil
	n := 0
	for ; n < len(dgs) && n < len(c.deliver); n++ {
		dgs[n].N = copy(dgs[n].Buf, c.deliver[n])
	}
	c.deliver = c.deliver[n:]
	if n == 0 {
		return 0, ErrTimeout
	}
	return n, nil
}

func (c *dispatchConn) SetReadDeadline(time.Time) error { return nil }
func (c *dispatchConn) Close() error                    { return nil }

// FuzzMuxDispatch feeds arbitrary datagrams to a mux with three ladders in
// flight at once — UDP, ICMP and TCP, from three workers, so quoted and
// terminal keys of several batches share the table, and the datagrams are
// read by one worker on behalf of all three — and checks the
// attribution boundary from outside: never a panic; a probe is answered
// only by a datagram whose flowkey.RespKey byte-equals that very probe's quoted or
// terminal key; a datagram answers at most as many probes as it was
// delivered times; the table drains. The seeds are netsim's genuine
// answers, forgeries that guess a flow identifier nearly right, quotes cut
// short, and junk.
func FuzzMuxDispatch(f *testing.F) {
	const perLadder = 4
	var (
		src     netip.Addr
		ladders [][][]byte
	)
	for di, d := range ladderDisciplines {
		s, probes, answers := recordLadder(f, d.mk, di, perLadder)
		src = s
		ladders = append(ladders, probes)
		for i, p := range probes {
			a := answers[string(p)]
			f.Add(a, uint8(1))
			if i > 0 {
				continue
			}
			f.Add(a, uint8(3)) // duplicated on the wire
			// Outer header, ICMP header, quoted header, then the eighth
			// quoted transport octet: the last one the key covers.
			if last := 20 + 8 + 20 + 7; len(a) > last {
				forged := append([]byte(nil), a...)
				forged[last] ^= 0x01 // a near miss
				f.Add(forged, uint8(1))
			}
			if h, _, err := packet.ParseIPv4(a); err == nil && len(a) > h.HeaderLen()+8+packet.IPv4HeaderLen {
				f.Add(a[:h.HeaderLen()+8+packet.IPv4HeaderLen+4], uint8(1)) // quote cut inside the transport octets
				f.Add(a[:h.HeaderLen()+8+10], uint8(1))                     // quote cut inside the IP header
			}
		}
	}
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0x45, 0, 0, 20}, uint8(2))

	f.Fuzz(func(t *testing.T, dgram []byte, copies uint8) {
		copies = copies%3 + 1
		if len(dgram) > 1500 {
			dgram = dgram[:1500]
		}
		conn := &dispatchConn{}
		conn.wrote = sync.NewCond(&conn.mu)
		for ; copies > 0; copies-- {
			conn.deliver = append(conn.deliver, dgram)
		}
		delivered := len(conn.deliver)
		m := openFakeMux(t, MuxConfig{Source: src, Conn: conn})
		outs := make([][]tracer.ProbeResult, len(ladders))
		for w := range ladders {
			outs[w] = make([]tracer.ProbeResult, perLadder)
			if w > 0 {
				conn.others = append(conn.others, func() { m.Transport().ExchangeBatch(ladders[w], outs[w]) })
			}
		}
		m.Transport().ExchangeBatch(ladders[0], outs[0])
		conn.wg.Wait()

		key, keyed := flowkey.RespKey(dgram)
		answered := 0
		for w := range ladders {
			for i, r := range outs[w] {
				if r.Err != nil {
					t.Fatalf("ladder %d probe %d failed: %v", w, i, r.Err)
				}
				if !r.OK {
					continue
				}
				answered++
				quoted, terminal, hasTerminal, _ := flowkey.ProbeKeys(ladders[w][i])
				if !keyed || (key != quoted && !(hasTerminal && key == terminal)) {
					t.Fatalf("ladder %d probe %d credited with a datagram whose key (%+v, ok=%v) is neither its quoted key %+v nor its terminal key %+v (has one: %v)",
						w, i, key, keyed, quoted, terminal, hasTerminal)
				}
				if string(r.Resp) != string(dgram) {
					t.Fatalf("ladder %d probe %d: response bytes differ from the datagram delivered", w, i)
				}
			}
		}
		if answered > delivered {
			t.Fatalf("%d probes answered by %d delivered datagrams", answered, delivered)
		}
		assertMuxDrained(t, m)
	})
}

// BenchmarkMuxExchange is the mux's own cost next to its code: 16-probe
// Paris-UDP ladders through the loop conn, one ladder per ExchangeBatch,
// from 1, 2 and 8 workers each with a handle of its own. ns/probe is wall
// time over every worker's probes; allocs/op is per ladder and stays 0.
func BenchmarkMuxExchange(b *testing.B) {
	const window = 16
	for _, handles := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("handles=%d", handles), func(b *testing.B) {
			answers := make(map[string][]byte)
			ladders := make([][][]byte, handles)
			var src netip.Addr
			for w := range ladders {
				s, probes, a := recordLadder(b, tracer.NewParisUDP, w, window)
				src, ladders[w] = s, probes
				for p, resp := range a {
					answers[p] = resp
				}
			}
			m := openFakeMux(b, MuxConfig{Source: src, Conn: &loopConn{answers: answers}})
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < handles; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					tp := m.Transport()
					out := make([]tracer.ProbeResult, window)
					for i := w; i < b.N; i += handles {
						tp.ExchangeBatch(ladders[w], out)
					}
				}(w)
			}
			wg.Wait()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*window), "ns/probe")
		})
	}
}
