package netsim

import (
	"math"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/keyhash"
)

// This file is the virtual-clock dynamics layer: seeded per-link latency,
// load-dependent queueing, and scheduled dynamics (route flaps, balancer
// weight churn, link brownouts) evolving on a virtual timeline that never
// reads the wall clock. Time exists only inside an exchange (vclock below):
// it starts at the probe's hashed start time and advances exclusively by the
// delay of each link the packet crosses.
//
// # Determinism contract
//
// Everything here is a pure function of (dynamics seed, link key, virtual
// time). Link keys are the receiving interface's 4-byte address — the same
// key the topology registry uses — so link parameters are identical across
// shard replicas by construction (topo replicates the spine with identical
// interface addresses). A probe's virtual start time is derived from the
// current round base plus a hash of the probe's own bytes, never from the
// network probe counter or the per-exchange RNG: counter and RNG values are
// schedule-dependent under concurrency, and consulting either would break
// the house invariant that campaign statistics are byte-identical at any
// shard/worker/batch setting. For the same reason the dynamics never mutate
// router state — a flapped router is not reconfigured, its flap is
// re-evaluated functionally at each arrival — so concurrent probes at
// different virtual times can never race on dynamics state.
//
// Each exchange keeps its own clock rather than sharing one per batch:
// probes are independent by design (required for the schedule invariance
// above), and interleaving exchanges by virtual arrival time would reorder
// the routers' IP ID counters between a batch and the same probes sent one
// at a time, breaking ExchangeBatch's byte-identity contract. An exchange
// has exactly one packet in flight at any moment — the probe, then the
// response it drew — so its clock is two integers, not an event queue.

// Dynamics configures the virtual-clock layer of a Network. The zero value
// (and any value with all three intensities zero) disables it entirely:
// forwarding then takes the historical instant-and-static path, byte for
// byte. Set it before probing begins (SetDynamics), like RandomPerPacket.
type Dynamics struct {
	// Seed fixes every per-link draw and every dynamics schedule. Two
	// networks configured with the same seed replay identical delays,
	// flaps, churn, and brownouts at identical virtual times.
	Seed uint64
	// Delay scales the per-link propagation and serialization delays,
	// which are drawn once per link from seeded lognormal distributions
	// (median 500µs propagation, median 100 Mbit/s bandwidth). 1 is the
	// calibrated scale; 0 disables the delay term.
	Delay float64
	// Load is the background cross-traffic intensity in [0, 0.95]: each
	// link carries that utilization of invisible traffic, inflating its
	// queueing delay M/M/1-style (load/(1-load) of the link's mean
	// service time), modulated per 100ms bucket by a seeded lognormal
	// burst factor (σ 1, median 1), read from a 4,096-entry table of the
	// lognormal's quantiles. 0 disables queueing.
	Load float64
	// Churn is the scheduled-dynamics rate in [0, 1]: it scales the
	// per-window probabilities of route flaps (a router transiently
	// refusing transit traffic with Destination Unreachable), balancer
	// weight churn (equal-cost bucket rotation), and link brownouts
	// (all packets arriving on a link dropped for the window). 0 disables
	// scheduled dynamics.
	Churn float64
	// RoundDuration is the virtual time one campaign round spans; probes
	// of round r start at uniformly hashed offsets within
	// [r*RoundDuration, (r+1)*RoundDuration). 0 selects 30s.
	RoundDuration time.Duration
}

// Enabled reports whether any dynamics term is active.
func (d Dynamics) Enabled() bool { return d.Delay > 0 || d.Load > 0 || d.Churn > 0 }

// Calibration constants of the dynamics models. All times are virtual
// nanoseconds.
const (
	defaultRoundDur = int64(30 * time.Second)

	// Per-link propagation delay: lognormal, median basePropNs, shape
	// sigmaProp — long-tailed like measured one-way link delays.
	basePropNs = 500e3
	sigmaProp  = 0.8

	// Per-link bandwidth: lognormal around 100 Mbit/s (0.1 bits per
	// nanosecond); serialization delay is pktBits/bandwidth.
	baseBWBitsPerNs = 0.1
	sigmaBW         = 1.0

	// Queueing: cross-traffic packets of crossPktBits drive the M/M/1
	// term; the burst factor redraws per burstBucketNs of virtual time
	// from burstTable's burstTableSize lognormal quantiles.
	crossPktBits   = 8000.0
	burstBucketNs  = int64(100 * time.Millisecond)
	sigmaBurst     = 1.0
	burstTableBits = 12
	burstTableSize = 1 << burstTableBits

	// Scheduled dynamics: per-(link, window) activation probabilities,
	// each scaled by Dynamics.Churn.
	flapWindowNs  = int64(10 * time.Second)
	flapProb      = 0.006
	brownWindowNs = int64(2 * time.Second)
	brownProb     = 0.004
	rotWindowNs   = int64(5 * time.Second)
	rotProb       = 0.5
)

// Hash salts decorrelating the per-purpose draw streams.
const (
	saltProp  = 0x70726f70a5a5a5a5
	saltBW    = 0x62616e64d6d6d6d6
	saltBurst = 0x6275727374575757
	saltFlap  = 0x666c6170cbcbcbcb
	saltBrown = 0x62726f776e6f7574
	saltRot   = 0x726f74617465baba
	saltStart = 0x7374617274f0f0f0
)

// dynamics is the compiled, immutable form of a Dynamics configuration,
// published behind Network.dyn exactly like a routerConfig snapshot.
type dynamics struct {
	seed     uint64
	delay    float64
	load     float64
	churn    float64
	roundDur int64
	// qFactor is the precomputed M/M/1 intensity term load/(1-load).
	qFactor float64
	// Each purpose's stream base, Mix64(seed ^ salt): the first link of
	// every linkHash chain, hashed once here instead of on every draw.
	propBase, bwBase, burstBase, flapBase, brownBase, rotBase uint64
	// links caches each link's time-invariant delay parameters, indexed by
	// the receiving node's id and filled on first crossing. SetDynamics
	// sizes it to the registry and registration grows it (both under
	// topoMu), so it lasts as long as this layer is installed.
	links []linkSlot
}

// linkSlot is one link's cached linkParams as float bits, drawn by whichever
// exchange crosses the link first. The parameters are a pure function of
// (seed, link address), so racing fills store the same bits; bw is never
// zero once drawn, which is what marks the slot filled.
type linkSlot struct{ prop, bw atomic.Uint64 }

// compileDynamics clamps and precomputes a Dynamics value; nil when
// disabled.
func compileDynamics(d Dynamics) *dynamics {
	if !d.Enabled() {
		return nil
	}
	if d.Load < 0 {
		d.Load = 0
	}
	if d.Load > 0.95 {
		d.Load = 0.95
	}
	if d.Churn < 0 {
		d.Churn = 0
	}
	if d.Churn > 1 {
		d.Churn = 1
	}
	if d.Delay < 0 {
		d.Delay = 0
	}
	dy := &dynamics{
		seed:     d.Seed,
		delay:    d.Delay,
		load:     d.Load,
		churn:    d.Churn,
		roundDur: int64(d.RoundDuration),

		propBase:  keyhash.Mix64(d.Seed ^ saltProp),
		bwBase:    keyhash.Mix64(d.Seed ^ saltBW),
		burstBase: keyhash.Mix64(d.Seed ^ saltBurst),
		flapBase:  keyhash.Mix64(d.Seed ^ saltFlap),
		brownBase: keyhash.Mix64(d.Seed ^ saltBrown),
		rotBase:   keyhash.Mix64(d.Seed ^ saltRot),
	}
	if dy.roundDur <= 0 {
		dy.roundDur = defaultRoundDur
	}
	if dy.load > 0 {
		dy.qFactor = dy.load / (1 - dy.load)
	}
	return dy
}

// u01 maps a hash to a uniform sample in [0, 1).
func u01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// stdNormal derives an approximately standard-normal sample from a hash by
// summing six chained uniforms (Irwin–Hall, variance 1/2, rescaled). The
// tails are clipped at ±3·sqrt(2), which is fine for delay modelling — the
// lognormal transform below supplies the heavy tail. It serves only the two
// per-link draws (propagation and bandwidth), which paramsOf caches, so its
// seven hashes are paid once per link; the per-crossing burst reads
// burstTable instead.
func stdNormal(h uint64) float64 {
	s := 0.0
	x := h
	for i := 0; i < 6; i++ {
		x = keyhash.Mix64(x)
		s += u01(x)
	}
	return (s - 3) * math.Sqrt2
}

// burstTable holds the queueing burst factor's distribution, lognormal with
// shape sigmaBurst and median 1, as burstTableSize exact quantiles at the
// bin midpoints: entry i is exp(sigmaBurst·Φ⁻¹((i+½)/burstTableSize)). The
// top burstTableBits of a uniform hash pick an entry, so a draw is one
// table load, and the tail reaches out to p = 1/(2·burstTableSize).
var burstTable = func() (t [burstTableSize]float64) {
	for i := range t {
		p := (float64(i) + 0.5) / burstTableSize
		t[i] = math.Exp(sigmaBurst * math.Sqrt2 * math.Erfinv(2*p-1))
	}
	return t
}()

// linkHash derives the per-link draw stream for one purpose, given that
// purpose's stream base (dynamics.propBase and its siblings).
func linkHash(base, k uint64) uint64 {
	return keyhash.Mix64(base ^ k)
}

// windowHash derives the per-(link, time window) draw stream.
func windowHash(base, k uint64, window int64) uint64 {
	return keyhash.Mix64(linkHash(base, k) ^ uint64(window))
}

// linkParams is the time-invariant part of one link's delay model; it
// depends only on (seed, link).
type linkParams struct {
	propNs      float64 // propagation delay, already Delay-scaled
	bwBitsPerNs float64 // serialization bandwidth
}

// paramsOf draws (or recalls) the propagation delay and bandwidth of the
// link into interface k. The draws hash the address key; the node id `to`
// (nodeNone for an unregistered adjacency) only locates the cache slot.
func (dy *dynamics) paramsOf(k uint32, to int32) linkParams {
	var slot *linkSlot
	if to >= 0 {
		slot = &dy.links[to]
		if bw := slot.bw.Load(); bw != 0 {
			return linkParams{propNs: math.Float64frombits(slot.prop.Load()), bwBitsPerNs: math.Float64frombits(bw)}
		}
	}
	p := linkParams{
		propNs:      dy.delay * basePropNs * math.Exp(sigmaProp*stdNormal(linkHash(dy.propBase, uint64(k)))),
		bwBitsPerNs: baseBWBitsPerNs * math.Exp(sigmaBW*stdNormal(linkHash(dy.bwBase, uint64(k)))),
	}
	if slot != nil {
		slot.prop.Store(math.Float64bits(p.propNs))
		slot.bw.Store(math.Float64bits(p.bwBitsPerNs))
	}
	return p
}

// linkDelay is the virtual time a pktLen-byte packet spends crossing the
// link into interface k (node `to`) when it departs at virtual time now:
// propagation plus serialization (both Delay-scaled, time-invariant per
// link) plus the load-driven queueing term (its burst factor redrawn per
// burst bucket from burstTable). Always at least 1ns, so the clock strictly
// advances.
func (dy *dynamics) linkDelay(k uint32, to int32, now int64, pktLen int) int64 {
	ns := 0.0
	if dy.delay > 0 || dy.load > 0 {
		p := dy.paramsOf(k, to)
		if dy.delay > 0 {
			ns += p.propNs + float64(pktLen*8)/p.bwBitsPerNs
		}
		if dy.load > 0 {
			burst := burstTable[windowHash(dy.burstBase, uint64(k), now/burstBucketNs)>>(64-burstTableBits)]
			ns += dy.qFactor * (crossPktBits / p.bwBitsPerNs) * burst
		}
	}
	if ns < 1 {
		ns = 1
	}
	return int64(ns)
}

// flapActive reports whether the router reached through interface k has
// transiently withdrawn its transit routes at virtual time now: it then
// answers transit probes with Destination Unreachable, the paper's
// "unreachability message" dynamic, for the duration of the flap window.
func (dy *dynamics) flapActive(k uint32, now int64) bool {
	if dy.churn <= 0 {
		return false
	}
	return u01(windowHash(dy.flapBase, uint64(k), now/flapWindowNs)) < flapProb*dy.churn
}

// brownout reports whether the link into interface k is browned out at
// virtual time now: every packet arriving on it during the window is
// dropped, producing mid-route stars (and lost responses).
func (dy *dynamics) brownout(k uint32, now int64) bool {
	if dy.churn <= 0 {
		return false
	}
	return u01(windowHash(dy.brownBase, uint64(k), now/brownWindowNs)) < brownProb*dy.churn
}

// weightRot is the equal-cost bucket rotation the router reached through
// interface k applies at virtual time now: load-balancer weight churn
// remaps flow buckets to different next hops window over window, without
// touching the forwarding table. 0 means no rotation this window.
func (dy *dynamics) weightRot(k uint32, now int64) int {
	if dy.churn <= 0 {
		return 0
	}
	h := windowHash(dy.rotBase, uint64(k), now/rotWindowNs)
	if u01(h) >= rotProb*dy.churn {
		return 0
	}
	return 1 + int(keyhash.Mix64(h)%15)
}

// probeStart places a probe on the virtual timeline: the round base plus a
// seeded hash of the probe's own bytes, uniform within the round duration.
// Hashing the probe bytes (not the probe counter) keeps start times — and
// with them every dynamics draw the probe observes — invariant to worker,
// shard, and batch scheduling.
func (dy *dynamics) probeStart(round int64, probe []byte) int64 {
	h := keyhash.FNV1a(dy.seed^saltStart, probe)
	return round*dy.roundDur + int64(keyhash.Mix64(h)%uint64(dy.roundDur))
}

// vclock is one exchange's virtual clock: the probe's start time and the
// current time. It never reads the wall clock and advances only when the
// packet crosses a link (advanceClock), so a simulated round's 30 virtual
// seconds cost zero real ones.
type vclock struct{ start, now int64 }

// reset rewinds the clock to a probe's virtual start time.
func (c *vclock) reset(start int64) { c.start, c.now = start, start }

// elapsed is the virtual time this exchange has consumed so far — the
// probe's RTT once its response is delivered.
func (c *vclock) elapsed() time.Duration { return time.Duration(c.now - c.start) }

// SetDynamics installs (or, with a disabled config, removes) the network's
// virtual-clock dynamics layer. Like RandomPerPacket it is a setup-time
// switch: set it before the first exchange, and never from an OnSend hook
// (it takes the topology read lock). With dynamics installed, exchanges run
// on the virtual clock — per-link delays, queueing, flaps, churn, and
// brownouts all replay identically from Dynamics.Seed — and report virtual
// RTTs; without, forwarding takes the historical instant path byte for byte.
func (n *Network) SetDynamics(d Dynamics) {
	dy := compileDynamics(d)
	n.topoMu.RLock()
	defer n.topoMu.RUnlock()
	if dy != nil {
		dy.links = make([]linkSlot, len(n.nodes))
	}
	n.dyn.Store(dy)
}

// DynamicsEnabled reports whether a dynamics layer is installed.
func (n *Network) DynamicsEnabled() bool { return n.dyn.Load() != nil }

// SetVirtualRound advances the virtual clock's round base: probes injected
// afterwards start within round r's virtual time span. Campaign drivers
// call it from their RoundStart hook (topo.Generate wires this up), which
// runs between rounds with no exchange in flight; a resumed campaign
// replays RoundStart for completed rounds, so the base is restored
// automatically. A no-op signal with dynamics disabled.
func (n *Network) SetVirtualRound(r int) {
	n.vround.Store(int64(r))
}

// advanceClock carries the packet across the link into node `to`: the clock
// moves to the arrival, the link's delay after the departure. via names the
// adjacency when nothing is registered there (to is nodeNone; nil: nowhere at
// all): the link is keyed by its address either way. It reports false when
// the link is browned out at arrival time and the packet is lost. Called only
// on the dynamics path (ctx.dyn non-nil).
func (n *Network) advanceClock(ctx *exchCtx, to int32, via *netip.Addr, pktLen int) bool {
	var (
		k  uint32
		ok bool
	)
	if to >= 0 {
		k, ok = n.nodes[to].key, true
	} else if via != nil {
		k, ok = a4(*via)
	}
	if !ok {
		return true // no link to cross: the walk drops the packet itself
	}
	ctx.clk.now += ctx.dyn.linkDelay(k, to, ctx.clk.now, pktLen)
	return !ctx.dyn.brownout(k, ctx.clk.now)
}
