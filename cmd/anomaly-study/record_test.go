package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/measure"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer/live"
)

var record = flag.Bool("record", false, "re-record the replay corpus captures this binary replays")

// recipe is a campaign capture of the replay corpus: the simulated network
// it is recorded over, and the shape flags that both the recording run and
// every replay of it are given.
type recipe struct {
	name   string // the capture is corpusDir/<name>.pcap
	golden string // TestOutputGolden's row replaying it
	seed   int64  // the topology's seed
	dests  int
	sched  func() live.SimSchedule
	shape  []string
}

// corpusDir holds the replay corpus.
var corpusDir = filepath.Join("..", "..", "internal", "tracer", "replay", "testdata", "corpus")

var recipes = []recipe{
	{
		// The bread-and-butter case: a clean multi-worker paired campaign.
		name: "clean-paris-udp", golden: "replay-clean", seed: 101, dests: 12,
		sched: func() live.SimSchedule { return live.SimSchedule{} },
		shape: []string{"-rounds", "2", "-workers", "4", "-seed", "42", "-retries", "0"},
	},
	{
		// Every probe's first transmission is dropped and answered only on
		// the retry: exercises retransmit folding and Karn's rule offline.
		name: "drop-retry-paris-udp", golden: "replay-drop-retry", seed: 103, dests: 8,
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
		shape: []string{"-rounds", "2", "-workers", "2", "-seed", "42", "-retries", "1"},
	},
}

// scenario is the network the recipe is recorded over: per-packet balancing
// and flips off, so every round answers the same probe the same way and the
// capture replays under any interleaving of the workers.
func (r recipe) scenario() *topo.Scenario {
	gc := simtest.Free(r.dests)
	gc.Seed = r.seed
	return topo.Generate(gc)
}

// args is the recipe's shape flags with its destinations in campaign order,
// which a multi-worker capture's first-seen order is not.
func (r recipe) args() []string {
	return append(slices.Clone(r.shape), "-live-dests", joinDests(r.scenario().Dests))
}

func (r recipe) capture() string { return filepath.Join(corpusDir, r.name+".pcap") }

func joinDests(dests []netip.Addr) string {
	s := make([]string, len(dests))
	for i, d := range dests {
		s[i] = d.String()
	}
	return strings.Join(s, ",")
}

// TestRecordCorpus records the corpus' campaign captures with the binary
// that replays them: -live -capture over the recipe's simulated network,
// then -replay of the fresh capture under the same flags. A capture is
// installed only if the replay printed what the live run printed — the
// report, and the -stats-json but for Robust.Mux, which only a live run
// stamps — and served every exchange it holds. Capture timestamps are the
// wall clock, so a re-record never reproduces the committed bytes: it runs
// only under -record, and TestOutputGolden -update then rewrites the replay
// goldens.
func TestRecordCorpus(t *testing.T) {
	if !*record {
		t.Skip("re-records the replay corpus only under -record")
	}
	for _, r := range recipes {
		t.Run(r.name, func(t *testing.T) {
			fresh := filepath.Join(t.TempDir(), r.name+".pcap")
			t.Setenv(simNetEnv, r.name)
			liveOut, liveStats := studyOutput(t, append(r.args(), "-live", "-capture", fresh)...)
			t.Setenv(simNetEnv, "")
			replayOut, replayStats := studyOutput(t, append(r.args(), "-replay", fresh)...)

			var st measure.Stats
			if err := json.Unmarshal(liveStats, &st); err != nil {
				t.Fatal(err)
			}
			if st.Robust.Mux == nil {
				t.Fatal("the live run's statistics carry no mux health")
			}
			st.Robust.Mux = nil
			if !bytes.Equal(replayOut, liveOut) || !bytes.Equal(replayStats, simtest.JSON(&st)) {
				t.Fatalf("the replay diverges from the live run; not installing %s\nlive:\n%s\nreplayed:\n%s", r.capture(), liveOut, replayOut)
			}
			raw, err := os.ReadFile(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(r.capture(), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}
