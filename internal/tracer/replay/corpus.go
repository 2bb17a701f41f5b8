package replay

//go:generate go run ./gen

import (
	"encoding/json"
	"fmt"
	"net/netip"

	"repro/internal/measure"
	"repro/internal/tracer"
)

// Spec is the sidecar a corpus capture carries (testdata/corpus/<name>.json):
// everything needed to re-run the captured study offline. The regression
// suite replays each committed capture under its spec and pins the output
// byte-for-byte against <name>.golden.json; gen/main.go regenerates all
// three files together (see the go:generate directive above).
type Spec struct {
	Name string `json:"name"`
	// Kind selects the harness: "campaign" runs a streamed measure.Campaign
	// and the golden holds its Stats; "traces" runs one tracer per
	// destination sequentially and the golden holds the routes.
	Kind string `json:"kind"`
	// Method names the probing discipline for Kind "traces"
	// ("paris-udp", "tcptraceroute", ...); ignored for campaigns, which
	// pair Paris and classic UDP themselves.
	Method string `json:"method,omitempty"`
	// Dests lists the destinations in campaign order — first-seen capture
	// order is worker-dependent, so the spec pins it explicitly.
	Dests   []string `json:"dests"`
	Rounds  int      `json:"rounds,omitempty"`
	Workers int      `json:"workers,omitempty"`
	// PortSeed seeds the campaign's per-destination flow identifiers; it
	// must match the captured run or replay fails loudly on the first probe.
	PortSeed int64 `json:"port_seed,omitempty"`
	// Retries is the captured run's re-send budget, forwarded to Config.
	Retries int `json:"retries,omitempty"`
}

// RunSpec executes a spec over the given transports — tpFor(w) is worker
// w's transport, exactly the campaign's TransportFor seam — and returns
// the canonical output bytes the corpus goldens pin: indented JSON with a
// trailing newline, the same form the CLI binaries persist. It is the one
// harness both the regression test (driving a replay Transport) and the
// corpus generator (driving the live mux it captures from) run, so a
// golden mismatch always means replay divergence, never harness drift.
func RunSpec(spec Spec, tpFor func(int) tracer.Transport) ([]byte, error) {
	dests := make([]netip.Addr, len(spec.Dests))
	for i, d := range spec.Dests {
		a, err := netip.ParseAddr(d)
		if err != nil {
			return nil, fmt.Errorf("replay: spec %q dest %q: %w", spec.Name, d, err)
		}
		dests[i] = a
	}
	switch spec.Kind {
	case "campaign":
		camp, err := measure.NewCampaign(nil, measure.Config{
			Dests: dests, Rounds: spec.Rounds, Workers: spec.Workers,
			PortSeed: spec.PortSeed, Batch: true, Stream: true,
			TransportFor: tpFor,
		})
		if err != nil {
			return nil, err
		}
		res, err := camp.Run()
		if err != nil {
			return nil, fmt.Errorf("replay: spec %q campaign: %w", spec.Name, err)
		}
		return canonicalJSON(res.Stats)
	case "traces":
		tr, err := tracer.New(spec.Method, tpFor(0), tracer.Options{Batch: true})
		if err != nil {
			return nil, fmt.Errorf("replay: spec %q: %w", spec.Name, err)
		}
		routes := make([]*tracer.Route, len(dests))
		for i, d := range dests {
			r, err := tr.Trace(d)
			if err != nil {
				return nil, fmt.Errorf("replay: spec %q trace %v: %w", spec.Name, d, err)
			}
			routes[i] = r
		}
		return canonicalJSON(routes)
	default:
		return nil, fmt.Errorf("replay: spec %q: unknown kind %q", spec.Name, spec.Kind)
	}
}

// canonicalJSON is the corpus golden form: indented, trailing newline.
func canonicalJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
