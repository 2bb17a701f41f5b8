package main

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"repro/internal/anomaly"
	"repro/internal/flow"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/topo"
	"repro/internal/tracer"
	"repro/internal/tracer/flowkey"
)

// layerCosts are the unit costs the budget table multiplies by the
// operations a traced run counted.
type layerCosts struct {
	craftNs, parseNs float64 // per probe, per answered probe
	ladderNs         float64 // per probe: craft + null exchange + parse + ladder bookkeeping
	foldNs           float64 // per pair
}

// layerSink receives results of timed calls so the compiler keeps them.
var layerSink uint64

// layerDests and layerRounds size the small campaign whose probes, responses
// and pairs are the layers phase's inputs.
const (
	layerDests  = 200
	layerRounds = 4
	// layerBudget is how long each unit cost is timed for.
	layerBudget = 40 * time.Millisecond
)

// perOp times fn, which performs ops operations per call, and returns the
// mean time and heap allocations per operation. One untimed call warms the
// caches; timed calls repeat until layerBudget has passed.
func perOp(ops int, fn func()) (ns, allocs float64) {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	calls := 0
	for time.Since(start) < layerBudget {
		fn()
		calls++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	total := float64(calls * ops)
	return float64(elapsed) / total, float64(after.Mallocs-before.Mallocs) / total
}

// recordingTransport records every probe, response and batch boundary of the
// small campaign.
type recordingTransport struct {
	inner     *netsim.Transport
	probes    [][]byte
	responses [][]byte // answered probes only
	batches   [][][]byte
	// answers, when non-nil, is filled instead: each response by its
	// probe's destination and TTL, the table a nullTransport serves.
	answers map[[4]byte][][]byte
}

// record files one exchange.
func (t *recordingTransport) record(probe, resp []byte, ok bool) {
	if t.answers != nil {
		dst := [4]byte(probe[16:20])
		if t.answers[dst] == nil {
			t.answers[dst] = make([][]byte, 256)
		}
		if ok {
			t.answers[dst][probe[8]] = bytes.Clone(resp)
		}
		return
	}
	t.probes = append(t.probes, bytes.Clone(probe))
	if ok {
		t.responses = append(t.responses, bytes.Clone(resp))
	}
}

func (t *recordingTransport) Source() netip.Addr { return t.inner.Source() }

func (t *recordingTransport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	resp, rtt, ok := t.inner.Exchange(probe)
	t.record(probe, resp, ok)
	return resp, rtt, ok
}

func (t *recordingTransport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	t.inner.ExchangeBatch(probes, out)
	first := len(t.probes)
	for i, p := range probes {
		t.record(p, out[i].Resp, out[i].OK)
	}
	if t.answers == nil {
		t.batches = append(t.batches, t.probes[first:len(t.probes):len(t.probes)])
	}
}

// nullTransport answers a Paris ladder from a table recorded beforehand,
// indexed by destination and TTL: the tracer's own cost with the network
// taken out.
type nullTransport struct {
	src     netip.Addr
	answers map[[4]byte][][]byte // by destination, then TTL; nil: a star
	probes  int
}

func (t *nullTransport) Source() netip.Addr { return t.src }

func (t *nullTransport) answer(probe []byte) []byte {
	t.probes++
	byTTL := t.answers[[4]byte(probe[16:20])]
	if ttl := int(probe[8]); ttl < len(byTTL) {
		return byTTL[ttl]
	}
	return nil
}

func (t *nullTransport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	resp := t.answer(probe)
	return resp, 0, resp != nil
}

func (t *nullTransport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	for i, p := range probes {
		resp := t.answer(p)
		out[i] = tracer.ProbeResult{Resp: append(out[i].Resp[:0], resp...), OK: resp != nil}
	}
}

// craftBuffers are the scratch buffers a probe builder recycles.
type craftBuffers struct{ payload, dgram, pkt []byte }

// craftParis and craftClassic make the calls tracer.NewParisUDP's and
// tracer.NewClassicUDP's builders make, on the packet package's public
// functions.
func craftParis(b *craftBuffers, src, dst netip.Addr, ttl, idx int) error {
	target := uint16(idx + 1)
	uh := &packet.UDP{SrcPort: 10007, DstPort: 20011}
	payload, err := packet.CraftUDPPayloadInto(b.payload, src, dst, uh, target, 12)
	if err != nil {
		return err
	}
	b.payload = payload
	return craftIPv4UDP(b, src, dst, uh, payload, ttl, idx)
}

var zeroPayload = make([]byte, 12)

func craftClassic(b *craftBuffers, src, dst netip.Addr, ttl, idx int) error {
	uh := &packet.UDP{SrcPort: tracer.ClassicSrcPortBase + 1234, DstPort: tracer.ClassicBaseDstPort + uint16(idx)}
	return craftIPv4UDP(b, src, dst, uh, zeroPayload, ttl, idx)
}

func craftIPv4UDP(b *craftBuffers, src, dst netip.Addr, uh *packet.UDP, payload []byte, ttl, idx int) error {
	dgram, err := packet.MarshalUDPInto(b.dgram, src, dst, uh, payload)
	if err != nil {
		return err
	}
	b.dgram = dgram
	pkt, err := (&packet.IPv4{TTL: uint8(ttl), Protocol: packet.ProtoUDP, ID: uint16(idx + 1), Src: src, Dst: dst}).MarshalInto(b.pkt, dgram)
	if err != nil {
		return err
	}
	b.pkt = pkt
	return nil
}

// parseResponse makes the packet-package calls the tracer's response parser
// makes on an ICMP error: outer header, ICMP message, quoted probe.
func parseResponse(resp []byte) error {
	var outer packet.IPv4
	payload, err := packet.ParseIPv4Into(resp, &outer)
	if err != nil {
		return err
	}
	if outer.Protocol != packet.ProtoICMP {
		return nil
	}
	var m packet.ICMP
	if err := packet.ParseICMPInto(payload, &m); err != nil {
		return err
	}
	if m.IsError() {
		_, _, err = packet.ParseQuoted(&m)
	}
	return err
}

// runLayers times public functions of each layer on inputs recorded from a
// small seeded campaign, files the unit costs under their per-layer names and
// returns the ones the budget table needs. The first error any timed
// function returns fails the phase.
func runLayers(c runConfig, o *outcome) (*layerCosts, error) {
	// Let the collection the workload left in progress finish first, so it
	// does not run under the short timings below.
	runtime.GC()
	g := topo.DefaultGenConfig()
	g.Seed = c.seed
	g.Destinations = layerDests
	if c.dests > 0 {
		g.Destinations = min(c.dests, layerDests)
	}
	sc := topo.Generate(g)
	rt := &recordingTransport{inner: netsim.NewTransport(sc.Net)}

	// The campaign is materialized and single-worker: its pairs feed the fold
	// and anomaly timings, its per-round probe counts the wasted-probe ratio.
	var probesAt []int
	camp, err := measure.NewCampaign(rt, measure.Config{
		Dests: sc.Dests, Rounds: layerRounds, Workers: 1, PortSeed: c.seed, Batch: true,
		RoundStart: func(r int) {
			probesAt = append(probesAt, len(rt.probes))
			sc.RoundStart(r)
		},
	})
	if err != nil {
		return nil, err
	}
	res, err := camp.Run()
	if err != nil {
		return nil, err
	}
	probesAt = append(probesAt, len(rt.probes))
	hinted, hops := probesAt[layerRounds]-probesAt[1], 0
	var pairs []measure.Pair
	var routes []*tracer.Route
	for r, round := range res.Rounds {
		for _, p := range round {
			if p.Outcome != measure.OutcomeOK {
				return nil, fmt.Errorf("layers campaign: pair toward %v %v", p.Dest, p.Outcome)
			}
			pairs = append(pairs, p)
			routes = append(routes, p.Paris, p.Classic)
			if r > 0 {
				hops += len(p.Paris.Hops) + len(p.Classic.Hops)
			}
		}
	}
	if hinted > 0 {
		// Rounds after the first carry path hints; the first sizes its
		// windows blind and is left out, like the workloads' warm-up.
		o.layer["tracer.wasted_probe_frac"] = 1 - float64(hops)/float64(hinted)
	}

	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	src := sc.Net.Source()
	u := &layerCosts{}

	var cb craftBuffers
	const craftTTLs = 16
	var craftAllocs float64
	u.craftNs, craftAllocs = perOp(2*craftTTLs*len(sc.Dests), func() {
		for _, d := range sc.Dests {
			for ttl := 1; ttl <= craftTTLs; ttl++ {
				note(craftParis(&cb, src, d, ttl, ttl-1))
				note(craftClassic(&cb, src, d, ttl, ttl-1))
			}
		}
	})
	o.layer["packet.craft_ns"], o.layer["packet.craft_allocs"] = u.craftNs, craftAllocs

	var parseAllocs float64
	u.parseNs, parseAllocs = perOp(len(rt.responses), func() {
		for _, resp := range rt.responses {
			note(parseResponse(resp))
		}
	})
	o.layer["packet.parse_ns"], o.layer["packet.parse_allocs"] = u.parseNs, parseAllocs

	o.layer["flow.extract_hash_ns"], _ = perOp(len(rt.probes), func() {
		for _, p := range rt.probes {
			k, err := flow.Extract(p, flow.Options{})
			note(err)
			layerSink += k.Hash()
		}
	})
	o.layer["flowkey.probe_keys_ns"], _ = perOp(len(rt.probes), func() {
		for _, p := range rt.probes {
			if _, _, _, ok := flowkey.ProbeKeys(p); !ok {
				note(fmt.Errorf("flowkey.ProbeKeys rejected a recorded probe"))
			}
		}
	})
	o.layer["flowkey.resp_key_ns"], _ = perOp(len(rt.responses), func() {
		for _, resp := range rt.responses {
			if _, ok := flowkey.RespKey(resp); !ok {
				note(fmt.Errorf("flowkey.RespKey rejected a recorded response"))
			}
		}
	})

	if err := ladderLayers(o, u, sc, note); err != nil {
		return nil, err
	}

	steps := 0
	o.layer["netsim.exchange_ns"], o.layer["netsim.exchange_allocs"] = perOp(len(rt.probes), func() {
		steps = 0
		for _, p := range rt.probes {
			_, s, _ := sc.Net.Exchange(p)
			steps += s
		}
	})
	o.layer["netsim.steps_per_probe"] = float64(steps) / float64(len(rt.probes))
	results := make([]tracer.ProbeResult, 64)
	o.layer["netsim.exchange_batch_ns_per_probe"], _ = perOp(len(rt.probes), func() {
		for _, b := range rt.batches {
			rt.inner.ExchangeBatch(b, results[:len(b)])
		}
	})
	g.Delay, g.Load, g.Churn = 1, 0.3, 0.5
	dyn := topo.Generate(g)
	dyn.RoundStart(0)
	o.layer["netsim.exchange_dyn_ns"], _ = perOp(len(rt.probes), func() {
		for _, p := range rt.probes {
			dyn.Net.Exchange(p)
		}
	})

	// Steady-state folds: every route is already interned after the first
	// pass, as in all but a campaign's first rounds. A destination's pairs
	// must arrive in nondecreasing round order, so each pass moves on.
	acc := measure.NewAccumulator()
	pass := 0
	var foldAllocs float64
	u.foldNs, foldAllocs = perOp(len(pairs), func() {
		for i := range pairs {
			p := pairs[i]
			p.Round += pass * layerRounds
			acc.Fold(&p)
		}
		pass++
	})
	o.layer["measure.fold_ns_per_pair"], o.layer["measure.fold_allocs_per_pair"] = u.foldNs, foldAllocs

	graphs := map[netip.Addr]*anomaly.Graph{}
	for _, d := range sc.Dests {
		graphs[d] = anomaly.NewGraph(d)
	}
	o.layer["anomaly.detect_ns_per_route"], _ = perOp(len(routes), func() {
		for _, r := range routes {
			layerSink += uint64(len(anomaly.FindLoops(r)) + len(anomaly.FindCycles(r)))
			graphs[r.Dest].Add(r)
		}
	})

	if err := pcapLayers(c, o, rt, note); err != nil {
		return nil, err
	}
	return u, firstErr
}

// ladderLayers times whole Paris traces over the null transport, batched and
// sequential.
func ladderLayers(o *outcome, u *layerCosts, sc *topo.Scenario, note func(error)) error {
	opts := tracer.Options{MinTTL: 2, MaxTTL: 39, MaxConsecutiveStars: 8}
	record := &recordingTransport{inner: netsim.NewTransport(sc.Net), answers: map[[4]byte][][]byte{}}
	hints := make([]int, len(sc.Dests))
	for i, d := range sc.Dests {
		route, err := tracer.NewParisUDP(record, opts).Trace(d)
		if err != nil {
			return err
		}
		hints[i] = len(route.Hops)
	}
	null := &nullTransport{src: sc.Net.Source(), answers: record.answers}

	trace := func(batch bool) (ns, allocsPerTrace float64) {
		o := opts
		o.Batch = batch
		o.Scratch = tracer.NewScratch()
		null.probes = 0
		for i, d := range sc.Dests {
			o.PathHint = hints[i]
			_, err := tracer.NewParisUDP(null, o).Trace(d)
			note(err)
		}
		perPass := null.probes
		ns, allocs := perOp(perPass, func() {
			for i, d := range sc.Dests {
				o.PathHint = hints[i]
				_, err := tracer.NewParisUDP(null, o).Trace(d)
				note(err)
			}
		})
		return ns, allocs * float64(perPass) / float64(len(sc.Dests))
	}
	u.ladderNs, o.layer["tracer.trace_allocs"] = trace(true)
	o.layer["tracer.ladder_ns_per_probe"] = u.ladderNs
	o.layer["tracer.ladder_seq_ns_per_probe"], _ = trace(false)
	return nil
}

// pcapLayers times the pcap writer, reader and capture sink on the recorded
// packets.
func pcapLayers(c runConfig, o *outcome, rt *recordingTransport, note func(error)) error {
	packets := append(append([][]byte(nil), rt.probes...), rt.responses...)
	ts := time.Unix(1700000000, 0)
	var buf bytes.Buffer
	o.layer["pcap.write_ns_per_rec"], _ = perOp(len(packets), func() {
		buf.Reset()
		w, err := pcap.NewWriter(&buf)
		note(err)
		for _, p := range packets {
			note(w.WritePacket(ts, p))
		}
	})
	o.layer["pcap.read_ns_per_rec"], _ = perOp(len(packets), func() {
		r, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
		note(err)
		for {
			if _, err := r.Next(); err != nil {
				if err != io.EOF {
					note(err)
				}
				break
			}
		}
	})

	// A capture buffers until Close, so each timing feeds a fresh sink a
	// fixed number of records instead of running for a fixed time.
	const captureRecords = 200_000
	feed := func(writers int) (float64, error) {
		sink, err := pcap.CreateCapture(c.path("layers.pcap"))
		if err != nil {
			return 0, err
		}
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < captureRecords/writers; i++ {
					sink.CaptureOutbound(ts, packets[i%len(packets)])
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		return float64(elapsed) / float64(captureRecords/writers*writers), sink.Close()
	}
	var err error
	if o.layer["pcap.capture_ns_per_rec"], err = feed(1); err != nil {
		return err
	}
	o.layer["pcap.capture_ns_per_rec_contended"], err = feed(c.procs)
	return err
}
