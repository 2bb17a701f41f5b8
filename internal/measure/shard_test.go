package measure

import (
	"testing"

	"repro/internal/simtest"
	"repro/internal/topo"
)

// TestWorkerPlanShardAffine checks the scheduling invariant directly: every
// destination is planned exactly once, and empty workers are tolerated.
// With at least as many workers as shards (evenly divisible or not), no
// worker's slice ever spans two shards; with fewer, whole shards are dealt
// out, so no shard spans two workers.
func TestWorkerPlanShardAffine(t *testing.T) {
	cfg := simtest.Default(160)
	cfg.Shards = 4
	sc := topo.Generate(cfg)
	for _, workers := range []int{32, 6, 2} {
		c := newCampaign(t, sc.Transport(), Config{
			Dests: sc.Dests, Workers: workers, ShardOf: sc.ShardOf, PortSeed: 1,
		})
		seen := make(map[int]bool)
		owner := make(map[int]int) // shard -> worker
		for w, idxs := range c.plan {
			shard := -1
			for _, i := range idxs {
				if seen[i] {
					t.Fatalf("workers=%d: destination index %d planned twice", workers, i)
				}
				seen[i] = true
				s := sc.ShardOf[sc.Dests[i]]
				if o, ok := owner[s]; ok && o != w && workers < cfg.Shards {
					t.Fatalf("workers=%d: shard %d dealt to workers %d and %d", workers, s, o, w)
				}
				owner[s] = w
				if shard == -1 {
					shard = s
				} else if s != shard && workers >= cfg.Shards {
					t.Fatalf("workers=%d: worker %d spans shards %d and %d", workers, w, shard, s)
				}
			}
		}
		if len(seen) != len(sc.Dests) {
			t.Fatalf("workers=%d: plan covers %d of %d destinations", workers, len(seen), len(sc.Dests))
		}
	}
}
