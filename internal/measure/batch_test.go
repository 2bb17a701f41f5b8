package measure

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// nonBatchTransport hides the transport's ExchangeBatch method, modelling a
// transport (e.g. a live-network one) that only offers single exchanges.
type nonBatchTransport struct {
	tp tracer.Transport
}

func (n nonBatchTransport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	return n.tp.Exchange(probe)
}

func (n nonBatchTransport) Source() netip.Addr { return n.tp.Source() }

// TestCampaignBatchFallback runs a Batch-configured campaign over a
// transport with no batching support: every trace must fall back to the
// sequential loop and produce the same statistics.
func TestCampaignBatchFallback(t *testing.T) {
	run := func(tp tracer.Transport, batch bool, sc *topo.Scenario) *Stats {
		res := mustRun(t, newCampaign(t, tp, Config{
			Dests:      sc.Dests,
			Rounds:     2,
			Workers:    8,
			RoundStart: sc.RoundStart,
			PortSeed:   42,
			Batch:      batch,
		}))
		s := Analyze(res)
		sort.Slice(s.AllAddresses, func(i, j int) bool {
			return s.AllAddresses[i].Less(s.AllAddresses[j])
		})
		return s
	}
	scA := topo.Generate(simtest.Default(60))
	want := run(scA.Transport(), false, scA)
	scB := topo.Generate(simtest.Default(60))
	got := run(nonBatchTransport{scB.Transport()}, true, scB)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("batch-configured campaign over a non-batching transport differs from sequential:\nwant: %+v\ngot:  %+v", want, got)
	}
}
