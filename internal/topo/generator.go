package topo

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"

	"repro/internal/asmap"
	"repro/internal/flow"
	"repro/internal/netsim"
	"repro/internal/tracer"
)

// GenConfig parameterizes the random Internet-like topology used for the
// Section 4 measurement campaign. Every anomaly cause in the paper's
// taxonomy has a knob; the defaults are calibrated so that a campaign at
// the paper's scale (5,000 destinations, hundreds of rounds) lands in the
// paper's regime: loops on a few percent of classic routes dominated by
// per-flow load balancing, rare deterministic causes (zero-TTL, NAT,
// unreachability) making up single-digit shares, and diamonds toward most
// destinations.
type GenConfig struct {
	Seed         int64
	Destinations int
	// Shards partitions the topology across that many fully independent
	// netsim.Network instances: the gateway/core/transit spine is
	// replicated once per shard (with identical interface addresses, so
	// measured routes do not depend on the shard count) and pods are
	// distributed round-robin by pod — not by destination — so pod-level
	// anomaly correlation survives partitioning. 0 or 1 builds the
	// classic single network. A destination's route exists only in its
	// own shard: cross-shard addresses are unroutable by construction.
	Shards int
	// DestsPerPod is the number of destinations attached to a regular
	// stub pod; pods share their access path, so anomalies on it repeat
	// across the pod's destinations. Rare-cause pods (NAT, zero-TTL,
	// flapping) are deliberately smaller so their instance counts match
	// the paper's single-digit shares.
	DestsPerPod int
	// Transits is the number of transit routers fanning out from the
	// core; each pod hangs off one of them.
	Transits int
	// CoreLen is the length of the shared core chain after the gateway.
	CoreLen int
	// MinPodChain/MaxPodChain bound the number of plain routers padding
	// each pod between gadgets.
	MinPodChain, MaxPodChain int

	// PPodDiamond is the probability a regular pod contains a
	// load-balanced diamond; PSecondDiamond adds a second one behind it.
	PPodDiamond    float64
	PSecondDiamond float64
	// PPerPacket is the probability a diamond balances per-packet
	// rather than per-flow. Per-packet diamonds are equal-length unless
	// PPerPacketUnequal also fires: they supply the diamond-count
	// residual Paris cannot remove, while contributing few loops.
	PPerPacket        float64
	PPerPacketUnequal float64
	// PUnequal is the probability a per-flow diamond's branches differ
	// in length by one (the loop gadget); PDiff2 the probability they
	// differ by two (the cycle gadget).
	PUnequal float64
	PDiff2   float64
	// DiamondWidths is the distribution of branch counts; entries are
	// sampled uniformly. Juniper permits up to sixteen equal-cost paths.
	DiamondWidths []int

	// PNATPod makes a (small) pod a NAT stub: its tail routers and
	// destinations sit behind a source-rewriting gateway (Fig. 5 loops).
	PNATPod float64
	// PZeroTTLPod inserts a zero-TTL-forwarding router (Fig. 4 loops).
	PZeroTTLPod float64
	// PFlapPod marks one pod router as flapping: each round it goes
	// unreachable with FlapProbability (unreachability loops).
	PFlapPod float64
	// PFlapDiamondPod co-locates a flapping router at the convergence of
	// an unequal diamond (unreachability cycles).
	PFlapDiamondPod float64
	FlapProbability float64
	// PLooperPod gives a pod a transient forwarding loop: each round,
	// with LoopProbability, two adjacent pod routers point at each other
	// (forwarding-loop cycles).
	PLooperPod      float64
	LoopProbability float64
	// PMessyNATPod adds NAT stubs whose inside boxes use mixed initial
	// ICMP TTLs (64/128/255): the rewritten-source loop survives but the
	// response-TTL gradient the classifier relies on breaks, so these
	// loops land in the unverifiable residual bucket — the paper's
	// "supposed per-packet" 2.5%.
	PMessyNATPod float64

	// PFlipPod gives a pod two parallel paths of different length;
	// during the campaign, each probe toward a flip pod's destination
	// flips the active path with FlipPerProbe probability, reproducing
	// routing changes in the middle of a traceroute (the rare one-round
	// signatures, and the loops "seen only by Paris"). Half the flip
	// pods differ by one hop (loop-shaped), half by two (cycle-shaped).
	PFlipPod     float64
	FlipPerProbe float64

	// NATPodDests, ZeroPodDests, FlapPodDests size the rare-cause pods.
	NATPodDests, ZeroPodDests, FlapPodDests int

	// Delay, Load, and Churn switch on netsim's virtual-clock dynamics
	// layer (netsim.Dynamics): per-link propagation/bandwidth/queueing
	// delay scale, background cross-traffic intensity in [0, 0.95], and
	// the scheduled-dynamics rate (route flaps, balancer weight churn,
	// link brownouts) in [0, 1]. All zero — the default — leaves the
	// simulator on its historical instant-and-static path, byte for byte.
	// Every shard network receives the same dynamics configuration, and
	// the generated RoundStart hook advances the virtual round on every
	// shard, so virtual time stays aligned across shardings.
	Delay, Load, Churn float64
	// DynamicsSeed fixes the dynamics layer's draws independently of the
	// topology seed; 0 derives it from Seed.
	DynamicsSeed int64
}

// DefaultGenConfig returns the calibrated configuration at a reduced scale
// suitable for tests and quick studies (500 destinations). The probability
// knobs are calibrated for the paper-scale run; at 500 destinations the
// rare causes appear in ones and twos, so their shares are noisy.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Seed:              42,
		Destinations:      500,
		DestsPerPod:       6,
		Transits:          12,
		CoreLen:           2,
		MinPodChain:       1,
		MaxPodChain:       4,
		PPodDiamond:       0.85,
		PSecondDiamond:    0.45,
		PPerPacket:        0.48,
		PPerPacketUnequal: 0.0005,
		PUnequal:          0.360,
		PDiff2:            0.130,
		DiamondWidths:     []int{2, 2, 2, 3, 3, 4, 8, 16},
		PNATPod:           0.006,
		PMessyNATPod:      0.0015,
		PZeroTTLPod:       0.010,
		PFlapPod:          0.008,
		PFlapDiamondPod:   0.006,
		FlapProbability:   0.12,
		PLooperPod:        0.020,
		LoopProbability:   0.10,
		PFlipPod:          0.12,
		FlipPerProbe:      0.00005,
		NATPodDests:       2,
		ZeroPodDests:      2,
		FlapPodDests:      3,
	}
}

// PaperScaleConfig returns the full-scale configuration of the paper's
// study: 5,000 destinations (pair with 556 rounds for the complete
// campaign).
func PaperScaleConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.Destinations = 5000
	cfg.Transits = 40
	return cfg
}

// Scenario is a generated measurement universe.
type Scenario struct {
	// Net is the single simulated network, or shard 0 of a sharded
	// scenario (which still answers probes toward its own pods only).
	Net *netsim.Network
	// Nets lists every shard network (length 1 when unsharded). The
	// shards are fully independent: no router, host, or lock is shared.
	Nets   []*netsim.Network
	Source netip.Addr
	Dests  []netip.Addr
	// ShardOf maps each destination to the index of the shard network
	// that routes it. Nil when the scenario is unsharded.
	ShardOf map[netip.Addr]int
	AS      *asmap.Table

	// RoundStart applies inter-round routing dynamics (flaps, transient
	// forwarding loops). Call it before each measurement round.
	RoundStart func(round int)

	// Truth records the gadget ground truth for validation.
	Truth Truth
}

// Transport returns a probe transport covering every destination: the plain
// network transport when unsharded, or a sharded transport dispatching each
// probe to its destination's shard without locking.
func (sc *Scenario) Transport() tracer.Transport {
	if len(sc.Nets) <= 1 {
		return netsim.NewTransport(sc.Net)
	}
	return netsim.NewShardedTransport(sc.Nets, sc.ShardOf)
}

// TransportState serializes each shard network's probe counter — the only
// transport cursor a resumed campaign or a recovered daemon needs to replay
// the per-packet schedules exactly. Its shape is measure.Config's and
// daemon.Config's TransportState hook.
func (sc *Scenario) TransportState() json.RawMessage {
	counts := make([]int, len(sc.Nets))
	for i, n := range sc.Nets {
		counts[i] = n.ProbeCount()
	}
	b, err := json.Marshal(struct{ ProbeCounts []int }{counts})
	if err != nil {
		return nil
	}
	return b
}

// RestoreTransportState rewinds each shard network to the probe counter a
// checkpoint carries, before probing resumes. An empty payload (a
// checkpoint written without the hook) restores nothing; one taken over a
// different shard count is refused.
func (sc *Scenario) RestoreTransportState(raw json.RawMessage) error {
	if len(raw) == 0 {
		return nil
	}
	var st struct{ ProbeCounts []int }
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("checkpoint transport state: %w", err)
	}
	if len(st.ProbeCounts) != len(sc.Nets) {
		return fmt.Errorf("checkpoint transport state covers %d shards, scenario has %d", len(st.ProbeCounts), len(sc.Nets))
	}
	for i, n := range sc.Nets {
		n.SetProbeCount(st.ProbeCounts[i])
	}
	return nil
}

// Truth counts the anomaly gadgets the generator placed.
type Truth struct {
	Pods                 int
	DestsBehindDiamond   int
	DestsBehindUnequal   int
	DestsBehindDiff2     int
	DestsBehindPerPacket int
	DestsBehindNAT       int
	DestsBehindZeroTTL   int
	DestsOnFlapPods      int
	DestsOnFlapDiamond   int
	DestsOnLooperPods    int
	DestsOnFlipPods      int
	Diamonds             int
	Routers              int
}

// podKind is the rare-cause pod taxonomy; regular pods carry the common
// gadgets (diamonds, loopers, flips).
type podKind int

const (
	podRegular podKind = iota
	podNAT
	podMessyNAT
	podZeroTTL
	podFlap
	podFlapDiamond
)

// routeTemplate is the per-pod recipe for installing a destination route.
type routeTemplate struct {
	steps []routeStep
	leaf  *netsim.Router
	nat   bool
	flip  *flipState
}

// Generate builds a random scenario from cfg.
func Generate(cfg GenConfig) *Scenario {
	if cfg.Destinations <= 0 {
		panic("topo: GenConfig.Destinations must be positive")
	}
	if cfg.DestsPerPod <= 0 {
		cfg.DestsPerPod = 6
	}
	if len(cfg.DiamondWidths) == 0 {
		cfg.DiamondWidths = []int{2}
	}
	if cfg.NATPodDests <= 0 {
		cfg.NATPodDests = 2
	}
	if cfg.ZeroPodDests <= 0 {
		cfg.ZeroPodDests = 2
	}
	if cfg.FlapPodDests <= 0 {
		cfg.FlapPodDests = 3
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	pool := newAddrPool()
	builders := make([]*Builder, shards)
	for s := range builders {
		// Shard 0 keeps the historical network seed so unsharded runs
		// reproduce bit for bit; later shards get decorrelated
		// per-exchange random streams.
		netSeed := cfg.Seed ^ 0x5eed
		if s > 0 {
			netSeed ^= int64(s) * 0x9e3779b9
		}
		builders[s] = newPooledBuilder(netSeed, pool)
	}
	b0 := builders[0]
	sc := &Scenario{Net: b0.Net, Source: b0.Source, AS: &asmap.Table{}}
	for _, b := range builders {
		sc.Nets = append(sc.Nets, b.Net)
	}
	if shards > 1 {
		sc.ShardOf = make(map[netip.Addr]int, cfg.Destinations)
	}

	// AS registry: core is tier-1, transits regional, pods stubs.
	sc.AS.RegisterAS(asmap.AS{Number: 1, Name: "core-t1", Tier: asmap.TierOne})
	sc.AS.Add(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, 0}), 12), 1)

	// Gateway/core/transit spine, replicated once per shard. Every
	// replica is built from the same pool state, so interface addresses —
	// and therefore measured routes — are identical regardless of the
	// shard count; only shard 0 advances the shared pool for real.
	type spine struct {
		core     []*netsim.Router
		transits []*netsim.Router
	}
	spines := make([]spine, shards)
	spineStart := *pool
	for s, b := range builders {
		if s > 0 {
			replay := spineStart
			b.pool = &replay
		}
		core := b.Chain(b.Gateway, cfg.CoreLen)
		transits := make([]*netsim.Router, cfg.Transits)
		for i := range transits {
			transits[i] = b.NewRouter(fmt.Sprintf("t%d", i))
			b.Link(core[len(core)-1], transits[i])
			if s == 0 {
				asn := 10 + i
				sc.AS.RegisterAS(asmap.AS{Number: asn, Name: fmt.Sprintf("transit-%d", i), Tier: asmap.TierRegional})
				sc.AS.Add(netip.PrefixFrom(transits[i].Iface(0), 32), asn)
			}
		}
		spines[s] = spine{core: core, transits: transits}
		b.pool = pool
	}

	gen := &generator{
		cfg: cfg, rng: rng, sc: sc,
		flipByDest: make(map[uint32]*flipState),
	}

	destsLeft := cfg.Destinations
	for p := 0; destsLeft > 0; p++ {
		// Round-robin by pod, not by destination: a pod's gadgets stay
		// together, so pod-level anomaly correlation survives sharding.
		si := p % shards
		b := builders[si]
		core, transits := spines[si].core, spines[si].transits
		transit := transits[rng.Intn(len(transits))]

		kind := podRegular
		r := rng.Float64()
		cum := 0.0
		for _, k := range []struct {
			p    float64
			kind podKind
		}{
			{cfg.PNATPod, podNAT},
			{cfg.PMessyNATPod, podMessyNAT},
			{cfg.PZeroTTLPod, podZeroTTL},
			{cfg.PFlapPod, podFlap},
			{cfg.PFlapDiamondPod, podFlapDiamond},
		} {
			cum += k.p
			if r < cum {
				kind = k.kind
				break
			}
		}

		nDest := cfg.DestsPerPod
		switch kind {
		case podNAT, podMessyNAT:
			nDest = cfg.NATPodDests
		case podZeroTTL:
			nDest = cfg.ZeroPodDests
		case podFlap, podFlapDiamond:
			nDest = cfg.FlapPodDests
		}
		if nDest > destsLeft {
			nDest = destsLeft
		}
		destsLeft -= nDest

		asn := 1000 + p
		sc.AS.RegisterAS(asmap.AS{Number: asn, Name: fmt.Sprintf("stub-%d", p), Tier: asmap.TierStub})

		tmpl := gen.buildPod(b, transit, kind, nDest)
		sc.Truth.Pods++

		// Attach destinations and install their routes.
		for d := 0; d < nDest; d++ {
			h := b.AttachHost(tmpl.leaf, "", tmpl.nat)
			sc.Dests = append(sc.Dests, h.Addr)
			if sc.ShardOf != nil {
				sc.ShardOf[h.Addr] = si
			}
			sc.AS.Add(netip.PrefixFrom(h.Addr, 32), asn)
			if tmpl.flip != nil {
				gen.flipByDest[dst4(h.Addr.AsSlice())] = tmpl.flip
			}
			installStep(routeStep{On: b.Gateway, Via: via(core[0].Iface(0))}, h.Addr)
			for i := 0; i+1 < len(core); i++ {
				installStep(routeStep{On: core[i], Via: via(core[i+1].Iface(0))}, h.Addr)
			}
			installStep(routeStep{On: core[len(core)-1], Via: via(transit.Iface(0))}, h.Addr)
			for _, s := range tmpl.steps {
				installStep(s, h.Addr)
			}
		}
	}
	sc.Truth.Routers = pool.routerSeq

	// Virtual-clock dynamics: install the (identical) compiled layer on
	// every shard network. With all intensities zero SetDynamics stores
	// nil and the forwarding path is untouched.
	if cfg.Delay > 0 || cfg.Load > 0 || cfg.Churn > 0 {
		dseed := cfg.DynamicsSeed
		if dseed == 0 {
			dseed = cfg.Seed ^ 0x7ea1
		}
		dyn := netsim.Dynamics{
			Seed:  uint64(dseed),
			Delay: cfg.Delay,
			Load:  cfg.Load,
			Churn: cfg.Churn,
		}
		for _, net := range sc.Nets {
			net.SetDynamics(dyn)
		}
	}

	// Inter-round dynamics.
	flapRouters := gen.flapRouters
	looperPairs := gen.looperPairs
	nets := sc.Nets
	dynRng := rand.New(rand.NewSource(cfg.Seed ^ 0x0ddba11))
	sc.RoundStart = func(round int) {
		// Advance the virtual clock's round base on every shard first: a
		// harmless atomic store when dynamics are off, and the hook runs
		// between rounds with no exchange in flight, so probes of round r
		// always start within round r's virtual span.
		for _, net := range nets {
			net.SetVirtualRound(round)
		}
		for _, f := range flapRouters {
			flapped := dynRng.Float64() < cfg.FlapProbability
			f.SetFaults(netsim.Faults{Unreachable: flapped})
		}
		for _, pair := range looperPairs {
			setLooped(pair, dynRng.Float64() < cfg.LoopProbability)
		}
	}
	// Mid-trace routing changes: each probe toward a flip pod's
	// destination may flip that pod's active path, so the change lands
	// in the middle of the traceroute currently probing it — the
	// paper's "routing change ... between the time S receives the
	// response to its probe with TTL 8 and the time that it emits the
	// probe with TTL 9".
	if flips := gen.flipByDest; len(flips) > 0 && cfg.FlipPerProbe > 0 {
		// One hook (with its own rng and mutex) per shard network: a flip
		// pod's destination is routable only in its own shard, so each
		// flipState is reached by exactly one shard's hook.
		for s, net := range sc.Nets {
			flipRng := rand.New(rand.NewSource(cfg.Seed ^ 0xf11b ^ int64(s)<<20))
			mu := new(sync.Mutex)
			net.OnSend(func(count int, probe []byte) {
				if len(probe) < 20 {
					return
				}
				fs, ok := flips[dst4(probe[16:20])]
				if !ok {
					return
				}
				// One mutex covers both the rng draw and the flip: probes
				// now run concurrently, and flipState's bookkeeping (onA)
				// is not safe to mutate from two hooks at once.
				mu.Lock()
				if flipRng.Float64() < cfg.FlipPerProbe {
					fs.flip()
				}
				mu.Unlock()
			})
		}
	}
	return sc
}

func via(addrs ...netip.Addr) []netsim.NextHop {
	hops := make([]netsim.NextHop, len(addrs))
	for i, a := range addrs {
		hops[i] = netsim.NextHop{Via: a}
	}
	return hops
}

func installStep(s routeStep, dest netip.Addr) {
	s.On.AddRoute(netsim.Route{
		Prefix:   netip.PrefixFrom(dest, 32),
		Hops:     s.Via,
		Balance:  s.Balance,
		FlowOpts: s.FlowOpts,
	})
}

// generator carries the shared state of one Generate run.
type generator struct {
	cfg GenConfig
	rng *rand.Rand
	sc  *Scenario

	flapRouters []*netsim.Router
	looperPairs [][2]*netsim.Router
	// flipByDest is keyed by dst4 of the destination: the flip hook runs
	// for every probe of the study, so its key is four bytes, not an Addr.
	flipByDest map[uint32]*flipState
}

// dst4 is the flip table's key: the four octets of an IPv4 address, as they
// sit in a probe's destination field.
func dst4(b []byte) uint32 { return binary.BigEndian.Uint32(b) }

// buildPod assembles one pod's routers into b (the pod's shard) and returns
// its route template.
func (g *generator) buildPod(b *Builder, entry *netsim.Router, kind podKind, nDest int) routeTemplate {
	cfg, rng := g.cfg, g.rng
	var tmpl routeTemplate
	cur := entry

	addChain := func(n int) {
		for i := 0; i < n; i++ {
			r := b.NewRouter("")
			r.SetIPIDStride(uint16(1 + rng.Intn(7)))
			b.Link(cur, r)
			tmpl.steps = append(tmpl.steps, routeStep{On: cur, Via: via(r.Iface(0))})
			cur = r
		}
	}

	// addDiamond inserts an equal-cost diamond: `width` branches of one
	// router each, except branch 0 which is longer by unequalDiff.
	// width <= 0 samples from the configured distribution.
	// Returns the convergence router.
	addDiamond := func(unequalDiff int, perPacket bool, width int) *netsim.Router {
		if width <= 0 {
			width = cfg.DiamondWidths[rng.Intn(len(cfg.DiamondWidths))]
		}
		exit := b.NewRouter("")
		exit.SetIPIDStride(uint16(1 + rng.Intn(7)))
		var heads []netip.Addr
		for w := 0; w < width; w++ {
			length := 1
			if w == 0 {
				length += unequalDiff
			}
			prev := cur
			var first netip.Addr
			for i := 0; i < length; i++ {
				r := b.NewRouter("")
				r.SetIPIDStride(uint16(1 + rng.Intn(7)))
				b.Link(prev, r)
				if i == 0 {
					first = r.Iface(0)
				} else {
					tmpl.steps = append(tmpl.steps, routeStep{On: prev, Via: via(r.Iface(0))})
				}
				prev = r
			}
			b.Link(prev, exit)
			tmpl.steps = append(tmpl.steps, routeStep{On: prev, Via: via(exit.Iface(0))})
			heads = append(heads, first)
		}
		policy := netsim.PerFlow
		if perPacket {
			policy = netsim.PerPacket
		}
		tmpl.steps = append(tmpl.steps, routeStep{
			On: cur, Via: via(heads...), Balance: policy,
			FlowOpts: flow.Options{Kind: flow.KeyFirstFourOctets},
		})
		cur = exit
		g.sc.Truth.Diamonds++
		g.sc.Truth.DestsBehindDiamond += nDest
		if perPacket {
			g.sc.Truth.DestsBehindPerPacket += nDest
		}
		switch unequalDiff {
		case 1:
			g.sc.Truth.DestsBehindUnequal += nDest
		case 2:
			g.sc.Truth.DestsBehindDiff2 += nDest
		}
		return exit
	}

	// drawDiamond picks policy and branch-length shape per the config.
	// Length-mismatched diamonds use wide convergence (one long branch
	// among many short ones), which lowers the per-trace straddle
	// probability: anomalies then spread thinly across many rounds and
	// destinations, matching the paper's rare, broadly distributed loop
	// and cycle signatures.
	drawDiamond := func() *netsim.Router {
		perPacket := rng.Float64() < cfg.PPerPacket
		diff := 0
		width := 0
		if perPacket {
			if rng.Float64() < cfg.PPerPacketUnequal {
				diff = 1
			}
		} else {
			switch r := rng.Float64(); {
			case r < cfg.PDiff2:
				diff = 2
				width = 16
			case r < cfg.PDiff2+cfg.PUnequal:
				diff = 1
				width = []int{8, 16, 16, 16}[rng.Intn(4)]
			}
		}
		return addDiamond(diff, perPacket, width)
	}

	addChain(cfg.MinPodChain + rng.Intn(maxInt(1, cfg.MaxPodChain-cfg.MinPodChain+1)))

	switch kind {
	case podNAT, podMessyNAT:
		nat := b.NewRouter("")
		b.Link(cur, nat)
		tmpl.steps = append(tmpl.steps, routeStep{On: cur, Via: via(nat.Iface(0))})
		nat.SetNAT(netsim.NAT{Public: nat.Iface(0), Inside: privatePrefix})
		cur = nat
		for i := 0; i < 2; i++ {
			r := b.NewRouter("")
			b.LinkPrivate(cur, r)
			if kind == podMessyNAT {
				// Mixed stacks inside: the response-TTL gradient the
				// classifier keys on does not hold, so these loops land
				// in the unverifiable residual bucket.
				ttls := []uint8{64, 255, 128}
				r.SetICMPTTL(ttls[i%len(ttls)])
			}
			tmpl.steps = append(tmpl.steps, routeStep{On: cur, Via: via(r.Iface(0))})
			cur = r
		}
		tmpl.nat = true
		g.sc.Truth.DestsBehindNAT += nDest

	case podZeroTTL:
		z := b.NewRouter("")
		z.SetFaults(netsim.Faults{ZeroTTLForward: true})
		b.Link(cur, z)
		tmpl.steps = append(tmpl.steps, routeStep{On: cur, Via: via(z.Iface(0))})
		cur = z
		addChain(2) // the router answering twice, plus one more
		g.sc.Truth.DestsBehindZeroTTL += nDest

	case podFlap:
		addChain(1)
		g.flapRouters = append(g.flapRouters, cur)
		addChain(1)
		g.sc.Truth.DestsOnFlapPods += nDest

	case podFlapDiamond:
		// Diff-2 shape: when the convergence router flaps, classic
		// traces can show it at hop k (Time Exceeded via the short
		// branch), a long-branch router at k+1, and the convergence
		// again at k+2 answering !H — the paper's unreachability cycle.
		exit := addDiamond(2, false, 2)
		g.flapRouters = append(g.flapRouters, exit)
		addChain(1)
		g.sc.Truth.DestsOnFlapDiamond += nDest

	case podRegular:
		if rng.Float64() < cfg.PPodDiamond {
			drawDiamond()
			if rng.Float64() < cfg.PSecondDiamond {
				addChain(1)
				drawDiamond()
			}
		}
		if rng.Float64() < cfg.PLooperPod {
			parent := cur
			addChain(1)
			g.looperPairs = append(g.looperPairs, [2]*netsim.Router{parent, cur})
			g.sc.Truth.DestsOnLooperPods += nDest
		}
		if rng.Float64() < cfg.PFlipPod {
			diff := 1 + rng.Intn(2) // loop-shaped or cycle-shaped
			tmpl.flip = buildFlip(b, &tmpl, &cur, diff)
			g.sc.Truth.DestsOnFlipPods += nDest
		}
		addChain(1)
	}

	tmpl.leaf = cur
	return tmpl
}

// flipState holds a mid-trace routing-change gadget: an entry router whose
// pod routes alternate between two parallel next hops of different lengths.
type flipState struct {
	entry      *netsim.Router
	viaA, viaB netip.Addr
	onA        bool
}

func (f *flipState) flip() {
	from, to := f.viaB, f.viaA
	if f.onA {
		from, to = f.viaA, f.viaB
	}
	f.entry.RewriteRoutes(func(rt netsim.Route) netsim.Route {
		hops := make([]netsim.NextHop, len(rt.Hops))
		copy(hops, rt.Hops)
		for i := range hops {
			if hops[i].Via == from {
				hops[i].Via = to
			}
		}
		rt.Hops = hops
		return rt
	})
	f.onA = !f.onA
}

// buildFlip constructs two parallel chains (lengths 1 and 1+diff) between
// the current router and a new convergence router; routes initially use the
// short one. Flipping mid-trace makes consecutive probes see paths whose
// lengths differ by diff — a loop (diff 1) or a cycle (diff 2) in the
// measured route.
func buildFlip(b *Builder, tmpl *routeTemplate, cur **netsim.Router, diff int) *flipState {
	entry := *cur
	exit := b.NewRouter("")
	// Short branch: one router.
	s := b.NewRouter("")
	b.Link(entry, s)
	b.Link(s, exit)
	tmpl.steps = append(tmpl.steps, routeStep{On: s, Via: via(exit.Iface(0))})
	// Long branch: 1+diff routers.
	prev := entry
	var longHead netip.Addr
	for i := 0; i < 1+diff; i++ {
		r := b.NewRouter("")
		b.Link(prev, r)
		if i == 0 {
			longHead = r.Iface(0)
		} else {
			tmpl.steps = append(tmpl.steps, routeStep{On: prev, Via: via(r.Iface(0))})
		}
		prev = r
	}
	b.Link(prev, exit)
	tmpl.steps = append(tmpl.steps, routeStep{On: prev, Via: via(exit.Iface(0))})
	// Active route: short branch.
	tmpl.steps = append(tmpl.steps, routeStep{On: entry, Via: via(s.Iface(0))})
	*cur = exit
	return &flipState{entry: entry, viaA: s.Iface(0), viaB: longHead, onA: true}
}

// setLooped installs or removes a transient forwarding loop between a pod
// router pair via the child's forwarding override: when looped, every
// transit packet at the child bounces back to the parent, which forwards it
// down again — packets ping-pong until TTL expiry.
func setLooped(pair [2]*netsim.Router, looped bool) {
	parent, child := pair[0], pair[1]
	var f netsim.Faults
	if looped {
		f.ForwardOverride = parent.Iface(0)
	}
	child.SetFaults(f)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
