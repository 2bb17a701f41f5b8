package topo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net/netip"
	"testing"

	"repro/internal/netsim"
)

// studyConfig is the topology anomaly-study -dests 5000 probes (and the
// bench's study workloads): the default configuration at 5,000
// destinations, flips on.
func studyConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.Destinations = 5000
	return cfg
}

// TestGenerateDigest pins the network Generate builds, byte for byte: a
// SHA-256 over every router — name, interfaces and Routes() in order —
// found with RouterAt over the builder's three address pools and taken in
// address order, then over Dests and Truth. A change to how the generator
// or netsim builds a network must leave these digests as they are.
func TestGenerateDigest(t *testing.T) {
	seed43 := DefaultGenConfig()
	seed43.Seed = 43
	for _, c := range []struct {
		name string
		cfg  GenConfig
		want string
	}{
		{"default/seed42", DefaultGenConfig(), "daee8e5956313647f7ed95b65317a605787063ea4e33313c47e317c91bcb524d"},
		{"default/seed43", seed43, "4798467b94e3c65bc47f1945fcf6d82c911d2faa402d5309cd876ad0f518d129"},
		{"study/5000", studyConfig(), "9ac514492326b38fbaffb80d7c90f66e6c56c0b80b89393f5b268c65099686f7"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := generateDigest(t, Generate(c.cfg)); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}

// generateDigest hashes sc's routers, Dests and Truth. It walks each pool
// from its first address while the address belongs to a router or a
// destination: every address the builder draws names one or the other.
func generateDigest(t *testing.T, sc *Scenario) string {
	h := sha256.New()
	dests := make(map[netip.Addr]bool, len(sc.Dests))
	for _, d := range sc.Dests {
		dests[d] = true
	}
	seen := make(map[*netsim.Router]bool)
	pools := []func(c uint32) netip.Addr{
		func(c uint32) netip.Addr { return netip.AddrFrom4([4]byte{10, byte(c >> 16), byte(c >> 8), byte(c)}) },
		func(c uint32) netip.Addr { return netip.AddrFrom4([4]byte{192, 168, byte(c >> 8), byte(c)}) },
		func(c uint32) netip.Addr {
			return netip.AddrFrom4([4]byte{172, byte(16 + c>>16), byte(c >> 8), byte(c)})
		},
	}
	starts := []uint32{256, 1, 1}
	for p, addr := range pools {
		for c := starts[p]; ; c++ {
			a := addr(c)
			r, ok := sc.Net.RouterAt(a)
			if !ok {
				if dests[a] {
					continue
				}
				break
			}
			if !seen[r] {
				seen[r] = true
				hashRouter(h, r)
			}
		}
	}
	if want := sc.Truth.Routers + 1; len(seen) != want { // the builder's routers and the gateway
		t.Fatalf("the pools hold %d routers, the generator made %d", len(seen), want)
	}
	fmt.Fprintln(h, sc.Dests)
	fmt.Fprintf(h, "%+v\n", sc.Truth)
	return hex.EncodeToString(h.Sum(nil))
}

func hashRouter(h hash.Hash, r *netsim.Router) {
	fmt.Fprintln(h, r.Name)
	for i := range r.NumIfaces() {
		fmt.Fprintln(h, r.Iface(i))
	}
	for _, rt := range r.Routes() {
		fmt.Fprintf(h, "%v %v %v %+v\n", rt.Prefix, rt.Hops, rt.Balance, rt.FlowOpts)
	}
}

// BenchmarkGenerate builds the study topology at 5,000 destinations: the
// whole of a paper-scale run's setup.
func BenchmarkGenerate(b *testing.B) {
	cfg := studyConfig()
	b.ReportAllocs()
	for b.Loop() {
		Generate(cfg)
	}
}
