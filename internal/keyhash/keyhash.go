// Package keyhash states once the two keyed hashes every seeded draw in this
// repository is built from. The rule they serve is the one SNIPPETS.md's
// exemplar follows with random.Random(str(identity)): same identity ⇒ same
// draws. A retry jitter, a shedding lottery ticket, a link's delay, a
// probe's place on the virtual timeline, a flow's bucket and a route's
// fingerprint are each a pure function of the identity they are keyed on
// (seed, destination, round, link, probe bytes) and never of the order the
// schedule happened to visit them in — which is what keeps statistics
// byte-identical across worker, shard and batch settings.
//
// Only the primitives live here. Each caller keeps its own composition
// (which words it folds, in what order, from what starting state), because
// that composition is the draw: transcripts.golden, toy-v5.ck and every
// checkpoint digest already on disk pin it bit for bit. The functions are
// small enough to inline — flow.Key.Hash, netsim's per-exchange prng and
// tracer.Route.Fingerprint sit on the per-probe path.
package keyhash

// The 64-bit FNV-1a parameters. Callers that fold whole words rather than
// bytes (route fingerprints, config digests) write the step
// h = (h ^ word) * FNVPrime64 themselves from FNVOffset64.
const (
	FNVOffset64 uint64 = 14695981039346656037
	FNVPrime64  uint64 = 1099511628211
)

// Golden64 is SplitMix64's increment (2^64 divided by the golden ratio):
// stepping a state by it and finalising each state with Mix64 is the
// SplitMix64 generator.
const Golden64 uint64 = 0x9e3779b97f4a7c15

// Mix64 is one SplitMix64 output: advance x by Golden64, then finalise.
// Chained (Mix64(Mix64(seed^salt) ^ key)) it is the keyed hash behind every
// per-identity draw.
func Mix64(x uint64) uint64 {
	x += Golden64
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FNV1a folds p into h one byte at a time (xor, then multiply). Start from
// FNVOffset64 for the textbook hash, or from a seeded state to key it.
func FNV1a(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = (h ^ uint64(b)) * FNVPrime64
	}
	return h
}
