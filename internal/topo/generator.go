package topo

import (
	"math/rand"
	"net/netip"
	"slices"
	"strconv"

	"repro/internal/asmap"
	"repro/internal/flow"
	"repro/internal/keyhash"
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
	// during the campaign, each probe position of a round's flip schedule
	// (netsim.FlipSchedule) flips the active path with FlipPerProbe
	// probability, reproducing routing changes in the middle of a
	// traceroute (the rare one-round signatures, and the loops "seen only
	// by Paris"). Half the flip pods differ by one hop (loop-shaped), half
	// by two (cycle-shaped).
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
	// Net is the simulated network.
	Net *netsim.Network
	// Nets is always []*netsim.Network{Net}. Only bench/ reads it, a
	// leftover of network sharding that goes with bench/'s next edit.
	Nets   []*netsim.Network
	Source netip.Addr
	Dests  []netip.Addr
	// ShardOf is always nil. Only bench/ reads it, passing it on to
	// measure.Config.ShardOf; it goes with bench/'s next edit.
	ShardOf map[netip.Addr]int
	AS      *asmap.Table

	// RoundStart applies inter-round routing dynamics (flaps, transient
	// forwarding loops, the round's flip schedules) and advances the
	// network's virtual round. Call it before each measurement round.
	RoundStart func(round int)

	// Truth records the gadget ground truth for validation.
	Truth Truth
}

// Transport returns a probe transport over the scenario's network.
func (sc *Scenario) Transport() tracer.Transport { return netsim.NewTransport(sc.Net) }

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
}

// Generate builds a random scenario from cfg.
//
// It builds on two goroutines. The calling one draws the pods in order,
// and links their routers; each new router gets its default route as it is
// linked, and the pod's leaf gets its destinations' host routes as they are
// attached. It then hands the pod's destination routes — along the spine,
// from the core to the pod's transit and along the pod's template — to a
// second goroutine, which installs the pods in the order it is handed them.
// So every router's routes arrive in the order one goroutine would add
// them: its default route and host routes come before its pod is handed
// over, no router gets a route from the calling goroutine once its pod is
// handed over (later pods only add interfaces to the shared transits), the
// pods come in order, and within a pod the routes go in as they always did,
// destination by destination along spine, transit and template. The second
// goroutine has ended when Generate returns, and a panic there reaches
// Generate's caller.
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

	rng := rand.New(rand.NewSource(cfg.Seed))
	b := NewBuilder(cfg.Seed ^ 0x5eed)
	sc := &Scenario{Net: b.Net, Nets: []*netsim.Network{b.Net}, Source: b.Source, AS: &asmap.Table{}}

	// AS registry: core is tier-1, transits regional, pods stubs.
	sc.AS.RegisterAS(asmap.AS{Number: 1, Name: "core-t1", Tier: asmap.TierOne})
	sc.AS.Add(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, 0}), 12), 1)

	// Gateway/core/transit spine, with the steps every destination route
	// takes along it: from the gateway down the core, then to a transit.
	core := b.Chain(b.Gateway, cfg.CoreLen)
	spine := []routeStep{{On: b.Gateway, Via: via(core[0].Iface(0))}}
	for i := 0; i+1 < len(core); i++ {
		spine = append(spine, routeStep{On: core[i], Via: via(core[i+1].Iface(0))})
	}
	transits := make([]*netsim.Router, cfg.Transits)
	toTransit := make([]routeStep, cfg.Transits)
	for i := range transits {
		transits[i] = b.NewRouter("t" + strconv.Itoa(i))
		b.Link(core[len(core)-1], transits[i])
		toTransit[i] = routeStep{On: core[len(core)-1], Via: via(transits[i].Iface(0))}
		asn := 10 + i
		sc.AS.RegisterAS(asmap.AS{Number: asn, Name: "transit-" + strconv.Itoa(i), Tier: asmap.TierRegional})
		sc.AS.Add(netip.PrefixFrom(transits[i].Iface(0), 32), asn)
	}

	gen := &generator{cfg: cfg, rng: rng, sc: sc}
	pods, installed := startInstaller(spine)
	func() {
		defer installed()
		gen.drawPods(b, transits, toTransit, pods)
	}()
	sc.Truth.Routers = b.routerSeq

	// Virtual-clock dynamics. With all intensities zero SetDynamics stores
	// nil and the forwarding path is untouched.
	if cfg.Delay > 0 || cfg.Load > 0 || cfg.Churn > 0 {
		dseed := cfg.DynamicsSeed
		if dseed == 0 {
			dseed = cfg.Seed ^ 0x7ea1
		}
		b.Net.SetDynamics(netsim.Dynamics{
			Seed:  uint64(dseed),
			Delay: cfg.Delay,
			Load:  cfg.Load,
			Churn: cfg.Churn,
		})
	}

	// Inter-round dynamics.
	flapRouters, loopers, flips := gen.flapRouters, gen.loopers, gen.flips
	if cfg.FlipPerProbe <= 0 {
		flips = nil
	}
	net := b.Net
	dynRng := rand.New(rand.NewSource(cfg.Seed ^ 0x0ddba11))
	sc.RoundStart = func(round int) {
		// Advance the virtual round first: it keys every exchange's
		// stream, and the hook runs between rounds with no exchange in
		// flight, so probes of round r always draw under r.
		net.SetVirtualRound(round)
		for _, f := range flapRouters {
			flapped := dynRng.Float64() < cfg.FlapProbability
			f.SetFaults(netsim.Faults{Unreachable: flapped})
		}
		for _, lp := range loopers {
			lp.looped = dynRng.Float64() < cfg.LoopProbability
			lp.child.SetFaults(lp.faults())
		}
		// Mid-trace routing changes: the round's flip schedule lands a
		// change in the middle of whichever traces straddle a toggle —
		// the paper's "routing change ... between the time S receives the
		// response to its probe with TTL 8 and the time that it emits the
		// probe with TTL 9".
		for _, fs := range flips {
			var f netsim.Faults
			if fs.loop != nil {
				f = fs.loop.faults()
			}
			f.Flip = fs.schedule(round, cfg.FlipPerProbe)
			fs.entry.SetFaults(f)
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

// podRoutes is one pod's share of the destination routes: the steps toward
// each of its destinations past the spine.
type podRoutes struct {
	dests   []netip.Addr
	transit routeStep // the core's step to the pod's transit
	steps   []routeStep
}

// startInstaller starts the goroutine that installs the destination routes
// of the pods sent on pods, in order, behind the spine. installed closes
// pods, waits for the goroutine to end and panics with what it recovered,
// if anything panicked there.
func startInstaller(spine []routeStep) (pods chan<- podRoutes, installed func()) {
	// The buffer lets the drawing goroutine run up to 64 pods ahead of the
	// installer instead of waiting at every hand-over.
	ch, done := make(chan podRoutes, 64), make(chan any)
	go func() {
		var failed any
		for p := range ch {
			if failed == nil {
				failed = p.install(spine)
			}
		}
		done <- failed
	}()
	return ch, func() {
		close(ch)
		if p := <-done; p != nil {
			panic(p)
		}
	}
}

// install adds the pod's destination routes, destination by destination,
// as spine, transit and template steps; it returns what panicked, if
// anything did.
func (p *podRoutes) install(spine []routeStep) (failed any) {
	defer func() { failed = recover() }()
	for _, d := range p.dests {
		for _, s := range spine {
			installStep(s, d)
		}
		installStep(p.transit, d)
		for _, s := range p.steps {
			installStep(s, d)
		}
	}
	return nil
}

// generator carries the shared state of one Generate run.
type generator struct {
	cfg GenConfig
	rng *rand.Rand
	sc  *Scenario

	flapRouters []*netsim.Router
	loopers     []*looper
	flips       []*flipState
}

// drawPods draws and links the pods until cfg.Destinations are attached,
// each off a transit drawn from transits, and sends each pod's destination
// routes to pods once its routers have their default routes and its leaf
// its host routes.
func (g *generator) drawPods(b *Builder, transits []*netsim.Router, toTransit []routeStep, pods chan<- podRoutes) {
	cfg, rng, sc := g.cfg, g.rng, g.sc
	destsLeft := cfg.Destinations
	for p := 0; destsLeft > 0; p++ {
		t := rng.Intn(len(transits))

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
		sc.AS.RegisterAS(asmap.AS{Number: asn, Name: "stub-" + strconv.Itoa(p), Tier: asmap.TierStub})

		tmpl := g.buildPod(b, transits[t], kind, nDest)
		sc.Truth.Pods++

		// Attach the destinations, then hand their routes over.
		first := len(sc.Dests)
		for range nDest {
			h := b.AttachHost(tmpl.leaf, "", tmpl.nat)
			sc.Dests = append(sc.Dests, h.Addr)
			sc.AS.Add(netip.PrefixFrom(h.Addr, 32), asn)
		}
		pods <- podRoutes{sc.Dests[first:], toTransit[t], tmpl.steps}
	}
}

// buildPod assembles one pod's routers into b and returns its route
// template.
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

	// behind adds the pod's destinations to a DestsBehind* count, once
	// however many of the pod's diamonds qualify.
	var counted []*int
	behind := func(n *int) {
		if !slices.Contains(counted, n) {
			counted = append(counted, n)
			*n += nDest
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
			if w == 0 {
				b.Link(prev, exit)
			} else {
				b.converge(prev)
			}
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
		behind(&g.sc.Truth.DestsBehindDiamond)
		if perPacket {
			behind(&g.sc.Truth.DestsBehindPerPacket)
		}
		switch unequalDiff {
		case 1:
			behind(&g.sc.Truth.DestsBehindUnequal)
		case 2:
			behind(&g.sc.Truth.DestsBehindDiff2)
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
		var lp *looper
		if rng.Float64() < cfg.PLooperPod {
			parent := cur
			addChain(1)
			lp = &looper{parent: parent, child: cur}
			g.loopers = append(g.loopers, lp)
			g.sc.Truth.DestsOnLooperPods += nDest
		}
		if rng.Float64() < cfg.PFlipPod {
			diff := 1 + rng.Intn(2) // loop-shaped or cycle-shaped
			fs := buildFlip(b, &tmpl, &cur, diff)
			// The flip's entry is the looper's child when the pod drew
			// both: one router, one Faults carrying both gadgets.
			fs.loop = lp
			fs.key = keyhash.Mix64(uint64(cfg.Seed) ^ saltFlips ^ keyhash.Mix64(uint64(len(g.flips))))
			g.flips = append(g.flips, fs)
			g.sc.Truth.DestsOnFlipPods += nDest
		}
		addChain(1)
	}

	tmpl.leaf = cur
	return tmpl
}

// flipState is a mid-trace routing-change gadget: an entry router whose pod
// routes run over the short branch (from), redirected to a longer parallel
// one (to) wherever the round's netsim.FlipSchedule is toggled.
type flipState struct {
	entry    *netsim.Router
	from, to netip.Addr
	// loop is the looper whose child is entry, if the pod drew both.
	loop *looper
	// key seeds the toggle draws. base is the state at position 0 of round
	// next, the round the draws have been carried to.
	key  uint64
	next int
	base bool
}

// saltFlips keys the flips' toggle draws apart from the generator's other
// seeded draws.
const saltFlips = 0xf11b

// schedule is the flip's schedule for round r. The state at position 0
// carries over from the end of round r-1; it is carried forward from round
// 0, or from the last round asked for when r does not precede it, so a
// resumed run reaches the same schedule with no cursor.
func (fs *flipState) schedule(r int, p float64) *netsim.FlipSchedule {
	if r < fs.next {
		fs.next, fs.base = 0, false
	}
	for ; fs.next < r; fs.next++ {
		if len(fs.toggles(fs.next, p))%2 == 1 {
			fs.base = !fs.base
		}
	}
	return &netsim.FlipSchedule{From: fs.from, To: fs.to, Base: fs.base, Toggles: fs.toggles(r, p)}
}

// toggles draws round r's toggle positions, ascending: each of the
// schedule's netsim.FlipSpan positions toggles with probability p, a pure
// function of (key, r, position).
func (fs *flipState) toggles(r int, p float64) []uint32 {
	var out []uint32
	k := fs.key ^ keyhash.Mix64(uint64(r))
	for pos := uint32(0); pos < netsim.FlipSpan; pos++ {
		if float64(keyhash.Mix64(k^uint64(pos))>>11)/(1<<53) < p {
			out = append(out, pos)
		}
	}
	return out
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
	b.converge(prev)
	tmpl.steps = append(tmpl.steps, routeStep{On: prev, Via: via(exit.Iface(0))})
	// Active route: short branch.
	tmpl.steps = append(tmpl.steps, routeStep{On: entry, Via: via(s.Iface(0))})
	*cur = exit
	return &flipState{entry: entry, from: s.Iface(0), to: longHead}
}

// looper is a transient forwarding-loop gadget between a pod router pair:
// when looped, every transit packet at child bounces back to parent, which
// forwards it down again — packets ping-pong until TTL expiry.
type looper struct {
	parent, child *netsim.Router
	looped        bool
}

// faults is the child's fault set for the round: the override when looped.
func (lp *looper) faults() netsim.Faults {
	var f netsim.Faults
	if lp.looped {
		f.ForwardOverride = lp.parent.Iface(0)
	}
	return f
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
