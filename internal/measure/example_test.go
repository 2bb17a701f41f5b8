package measure_test

import (
	"fmt"
	"os"

	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/simtest"
	"repro/internal/topo"
)

// Run a miniature version of the paper's month-long study — paired
// classic/Paris traceroutes toward a few hundred destinations over several
// rounds with routing dynamics — and print the Section 4 statistics next to
// the values the paper reports.
//
// The statistics are folded while the campaign probes (Config.Stream):
// memory stays proportional to the destinations and distinct routes, not
// the round count, which is how the full 5,000 × 556 study runs
// (go run ./cmd/anomaly-study -paper). Every draw the simulator makes is
// keyed by the probe and the round, never by arrival order, so eight
// workers print the same bytes as one, run after run. At this miniature
// scale the rare causes appear in ones and twos.
func Example_campaign() {
	sc := topo.Generate(simtest.Default(300))
	fmt.Printf("generated scenario: %d destinations, %d routers, %d load-balanced diamonds\n\n",
		len(sc.Dests), sc.Truth.Routers, sc.Truth.Diamonds)
	camp, err := measure.NewCampaign(netsim.NewTransport(sc.Net), measure.Config{
		Dests: sc.Dests, Rounds: 15, Workers: 8, RoundStart: sc.RoundStart, PortSeed: 42, Stream: true,
	})
	if err != nil {
		panic(err)
	}
	res, err := camp.Run()
	if err != nil {
		panic(err)
	}
	measure.WriteReport(os.Stdout, res.Stats, sc.AS)
	// Output:
	// generated scenario: 300 destinations, 729 routers, 69 load-balanced diamonds
	//
	// campaign: 300 destinations x 15 rounds = 4500 classic routes
	// responses: 99521   distinct addresses: 1005   mid-route stars: 0   reached: 99.4%
	// hop RTTs: 99521 samples   mean: 7.208147ms   min: 2ms   max: 17.5ms
	// AS coverage: 66 ASes (1 tier-1, 12 regional), 0 unmapped addresses
	//
	// statistic                                         paper     measured
	// loops: routes with >=1 loop                       5.30%        4.78%
	// loops: destinations affected                     18.00%       15.67%
	// loops: addresses in a loop                        6.30%        2.69%
	// loops: signatures seen in one round              18.00%       44.33%
	// loops: caused by per-flow LB                     87.00%       77.67%
	// loops: caused by zero-TTL forwarding              6.90%        0.00%
	// loops: caused by unreachability                   1.20%        8.37%
	// loops: caused by address rewriting                2.80%        0.00%
	// loops: residual (per-packet LB)                   2.50%       13.95%
	// loops: seen only by Paris                         0.25%        4.19%
	// cycles: routes with >=1 cycle                     0.84%        0.93%
	// cycles: destinations affected                    11.00%        4.33%
	// cycles: addresses in a cycle                      3.60%        1.00%
	// cycles: signatures seen in one round             30.00%       75.86%
	// cycles: mean rounds per signature           6.80 rounds  1.45 rounds
	// cycles: caused by per-flow LB                    78.00%       92.86%
	// cycles: caused by forwarding loops               20.00%        0.00%
	// cycles: caused by unreachability                  1.20%        7.14%
	// diamonds: destinations affected                  79.00%       88.33%
	// diamonds: total count                             16385          487
	// diamonds: caused by per-flow LB                  64.00%       59.34%
}
