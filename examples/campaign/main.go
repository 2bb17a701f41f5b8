// Campaign runs a miniature version of the paper's month-long study —
// paired classic/Paris traceroutes toward a few hundred destinations over
// several rounds with routing dynamics — and prints the Section 4
// statistics next to the values the paper reports.
//
// The statistics are folded while the campaign probes (Config.Stream):
// memory stays proportional to the destinations and distinct routes, not
// the round count, which is how the full 5,000 × 556 study runs. The
// full-scale study is available via `go run ./cmd/anomaly-study -paper`.
//
// One worker probes every destination in list order, so the mid-trace
// path flips — drawn from the network-wide probe counter — land on the same
// probes every run, and so does every statistic printed: two runs print
// identical bytes.
//
// Run: go run ./examples/campaign
package main

import (
	"fmt"
	"os"

	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/topo"
)

func main() {
	cfg := topo.DefaultGenConfig()
	cfg.Destinations = 300
	sc := topo.Generate(cfg)
	fmt.Printf("generated scenario: %d destinations, %d routers, %d load-balanced diamonds\n\n",
		len(sc.Dests), sc.Truth.Routers, sc.Truth.Diamonds)

	camp, err := measure.NewCampaign(netsim.NewTransport(sc.Net), measure.Config{
		Dests:      sc.Dests,
		Rounds:     15,
		Workers:    1,
		RoundStart: sc.RoundStart,
		PortSeed:   cfg.Seed,
		Stream:     true,
	})
	if err != nil {
		panic(err)
	}
	res, err := camp.Run()
	if err != nil {
		panic(err)
	}
	measure.WriteReport(os.Stdout, res.Stats, sc.AS)
	fmt.Println("\n(at this miniature scale the rare causes appear in ones and twos;")
	fmt.Println(" run cmd/anomaly-study -paper for the calibrated full-scale study)")
}
