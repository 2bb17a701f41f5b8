// Command gen regenerates the replay corpus under testdata/corpus: for
// each recipe it captures a hermetic study through the real live mux (a
// SimConn replaying a generated netsim topology on the virtual clock),
// replays the fresh capture, verifies the replayed output is byte-identical
// to the original run, and only then writes the three files the regression
// suite consumes: <name>.pcap, <name>.json (the Spec), and
// <name>.golden.json.
//
// Run it from the replay package directory (go generate ./internal/tracer/replay).
// Regeneration changes capture timestamps, so all three files always churn
// together; the goldens stay valid because they are derived from the new
// capture, not carried over.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/pcap"
	"repro/internal/topo"
	"repro/internal/tracer"
	"repro/internal/tracer/live"
	"repro/internal/tracer/replay"
)

// recipe binds a Spec to the fault schedule its capture is taken under.
type recipe struct {
	spec  replay.Spec
	seed  int64
	dests int
	sched func() live.SimSchedule
}

var recipes = []recipe{
	{
		// The bread-and-butter case: a clean multi-worker paired campaign.
		spec: replay.Spec{
			Name: "clean-paris-udp", Kind: "campaign",
			Rounds: 2, Workers: 4, PortSeed: 42,
		},
		seed: 101, dests: 12,
		sched: func() live.SimSchedule { return live.SimSchedule{} },
	},
	{
		// Every probe's first transmission is dropped and answered only on
		// the retry: exercises retransmit folding and Karn's rule offline.
		spec: replay.Spec{
			Name: "drop-retry-paris-udp", Kind: "campaign",
			Rounds: 2, Workers: 2, PortSeed: 42, Retries: 1,
		},
		seed: 103, dests: 8,
		sched: func() live.SimSchedule {
			var mu sync.Mutex
			seen := make(map[string]bool)
			return live.SimSchedule{Drop: func(_ int, probe []byte) bool {
				mu.Lock()
				defer mu.Unlock()
				if seen[string(probe)] {
					return false
				}
				seen[string(probe)] = true
				return true
			}}
		},
	},
	{
		// Constant-sequence TCP probes under reordered arrival: pins the
		// oldest-unanswered FIFO attribution byte-for-byte.
		spec: replay.Spec{
			Name: "reorder-tcptraceroute", Kind: "traces", Method: "tcptraceroute",
		},
		seed: 107, dests: 4,
		sched: func() live.SimSchedule { return live.SimSchedule{Reorder: true} },
	},
}

func main() {
	log.SetFlags(0)
	outDir := filepath.Join("testdata", "corpus")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, r := range recipes {
		if err := generate(outDir, r); err != nil {
			log.Fatalf("%s: %v", r.spec.Name, err)
		}
		log.Printf("regenerated %s", r.spec.Name)
	}
}

// generate captures one recipe's study and installs its corpus triplet.
func generate(outDir string, r recipe) error {
	// The topology the committed corpus was recorded over: per-packet
	// balancing and flips off, so every round answers the same probe the
	// same way and the capture replays under any interleaving.
	gc := topo.DefaultGenConfig()
	gc.Seed = r.seed
	gc.Destinations = r.dests
	gc.FlipPerProbe = 0
	gc.PPerPacket = 0
	gc.PPerPacketUnequal = 0
	sc := topo.Generate(gc)

	spec := r.spec
	for _, d := range sc.Dests {
		spec.Dests = append(spec.Dests, d.String())
	}

	pcapPath := filepath.Join(outDir, spec.Name+".pcap")
	cap, err := pcap.CreateCapture(pcapPath)
	if err != nil {
		return err
	}
	fake := &live.SimConn{
		Respond: func(probe []byte) ([]byte, bool) {
			resp, _, ok := sc.Net.Exchange(probe)
			return resp, ok
		},
		Sched: r.sched(),
	}
	m, err := live.NewMux(live.MuxConfig{
		Source: sc.Net.Source(), Conn: fake, Retries: spec.Retries, Capture: cap,
	})
	if err != nil {
		return err
	}
	original, err := replay.RunSpec(spec, func(int) tracer.Transport { return m.Transport() })
	if err != nil {
		return fmt.Errorf("captured run: %w", err)
	}
	if err := m.Close(); err != nil {
		return err
	}
	if err := cap.Close(); err != nil {
		return err
	}

	// Gate on the acceptance property before committing anything: the
	// fresh capture replayed under the spec must reproduce the original
	// output byte for byte and consume every exchange.
	rt, err := replay.Open(pcapPath, replay.Config{Retries: spec.Retries})
	if err != nil {
		return fmt.Errorf("reading back capture: %w", err)
	}
	replayed, err := replay.RunSpec(spec, func(int) tracer.Transport { return rt })
	if err != nil {
		return fmt.Errorf("replaying capture: %w", err)
	}
	if !bytes.Equal(replayed, original) {
		return fmt.Errorf("replayed output diverges from the captured run; not installing corpus files")
	}
	if l := rt.Leftover(); l != 0 {
		return fmt.Errorf("%d captured exchanges never served by the replayed run", l)
	}

	specJSON, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, spec.Name+".json"), append(specJSON, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, spec.Name+".golden.json"), original, 0o644)
}
