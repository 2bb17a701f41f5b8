package cli

import (
	"flag"
	"math"

	"repro/internal/topo"
)

// Topo is the flag group that selects a generated topology.
type Topo struct {
	Dests        int
	Seed         int64
	Delay        float64
	Load         float64
	Churn        float64
	DynamicsSeed int64

	// Flips and Paper have a flag (-flips, -paper) only in the binaries
	// that offer the choice; those bind the field themselves after
	// Register, which sets the value everyone else runs with.
	Flips bool
	Paper bool
}

// Register declares the group's flags on fs; dests is the binary's own
// default for -dests.
func (t *Topo) Register(fs *flag.FlagSet, dests int) {
	t.Flips = true
	fs.IntVar(&t.Dests, "dests", dests, "number of simulated destinations")
	fs.Int64Var(&t.Seed, "seed", 42, "topology, port and dynamics seed")
	fs.Float64Var(&t.Delay, "delay", 0, "virtual-clock per-link delay scale (1 = calibrated; 0 disables)")
	fs.Float64Var(&t.Load, "load", 0, "virtual-clock background cross-traffic intensity in [0, 0.95]")
	fs.Float64Var(&t.Churn, "churn", 0, "virtual-clock scheduled-dynamics rate (flaps/weight churn/brownouts) in [0, 1]")
	fs.Int64Var(&t.DynamicsSeed, "dynamics-seed", 0, "seed for the virtual-clock dynamics draws (0: derived from -seed)")
}

// Generate builds the scenario the flags describe.
func (t *Topo) Generate() (*topo.Scenario, error) {
	cfg, err := t.Config()
	if err != nil {
		return nil, err
	}
	return topo.Generate(cfg), nil
}

// Config is the generator configuration the flags describe.
func (t *Topo) Config() (topo.GenConfig, error) {
	cfg := topo.DefaultGenConfig()
	if t.Paper {
		cfg = topo.PaperScaleConfig()
	} else {
		cfg.Destinations = t.Dests
	}
	if cfg.Destinations <= 0 {
		return cfg, Usagef("-dests must be positive, got %d", t.Dests)
	}
	// The comparisons are false for NaN, so NaN is refused with the rest.
	if !(t.Delay >= 0 && !math.IsInf(t.Delay, 1)) {
		return cfg, Usagef("-delay must be a finite scale >= 0, got %v", t.Delay)
	}
	if !(t.Load >= 0 && t.Load <= 0.95) {
		return cfg, Usagef("-load must be in [0, 0.95], got %v", t.Load)
	}
	if !(t.Churn >= 0 && t.Churn <= 1) {
		return cfg, Usagef("-churn must be in [0, 1], got %v", t.Churn)
	}
	cfg.Seed = t.Seed
	if !t.Flips {
		cfg.FlipPerProbe = 0
	}
	cfg.Delay = t.Delay
	cfg.Load = t.Load
	cfg.Churn = t.Churn
	cfg.DynamicsSeed = t.DynamicsSeed
	return cfg, nil
}
