// Package topo constructs simulated topologies: a fluent builder over
// netsim, exact presets for every figure in the paper (Figs. 1, 3, 4, 5, 6),
// and a parameterized random generator for the Section 4 measurement
// campaign.
//
// # Determinism and concurrency contract
//
// Generate is a pure function of its GenConfig: the same config yields
// byte-identical topologies — router and interface addresses, routes,
// load-balancer placement, destination lists, and ground truth — on every
// run. All randomness flows from GenConfig.Seed through dedicated
// sub-streams, so enabling one feature never perturbs the draws of another.
//
// Scenario.RoundStart is the between-rounds hook: it advances the virtual
// round (netsim.Network.SetVirtualRound), draws the inter-round routing
// dynamics — router flaps per FlapProbability and loop toggles per
// LoopProbability — from a dedicated seeded stream, and publishes each flip
// pod's netsim.FlipSchedule for the round. A schedule
// is a pure function of (seed, pod, round), its starting state carried from
// round 0, so RoundStart(r) publishes the same schedule whether or not the
// rounds before it ran. It runs on the campaign goroutine between round
// barriers, never concurrently with probing. The virtual-clock knobs
// (Delay, Load, Churn, DynamicsSeed) install a netsim.Dynamics, whose draws
// are keyed by (seed, link, virtual time).
package topo
