package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartiles returns the first, second and third quartile of vals the way
// Python's statistics.quantiles(vals, n=4) does (the exclusive method), which
// is how the driver reads a metric's spread. Fewer than two values have no
// spread: all three are the value itself.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// absoluteFloor is the difference below which a set-up time is never
// flagged: under 20 ms the scheduler, not the program, decides the reading.
const absoluteFloor = 0.020

// verdict compares one end-to-end metric's runs on two sides. worse means B's
// median is worse than A's by more than the bound; where either side's own
// quartile spread is wider than the bound the medians cannot resolve that,
// and the verdict is unresolved unless every run of B beats every run of A.
func verdict(m metricSpec, a, b []float64) string {
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	if amed == 0 {
		return "unresolved"
	}
	sign := 1.0 // positive change: worse
	if m.Better == "higher" {
		sign = -1
	}
	change := sign * (bmed - amed) / amed
	spread := math.Max(aq3-aq1, bq3-bq1) / amed
	if m.Name == "setup_s" && math.Abs(bmed-amed) < absoluteFloor {
		return "same"
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread > m.Bound && allBetter:
		return "better"
	case spread > m.Bound:
		return "unresolved"
	case change > m.Bound:
		return "worse"
	case change < -spread && allBetter:
		return "better"
	}
	return "same"
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := new(resultFile)
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// values collects one metric over a workload's untraced runs.
func (w *workloadResult) values(metric string) []float64 {
	var out []float64
	for _, r := range w.Runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func (w *workloadResult) failFrac() float64 {
	attempted, failed := 0, 0
	for _, r := range w.Runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareFiles prints, per workload, a row for every end-to-end metric with
// both sides' medians and quartiles, BENCHMARK.json's bound and the verdict.
// It reports whether any metric came out worse or any workload's fail_frac
// rose.
func compareFiles(out io.Writer, spec *benchSpec, pathA, pathB string) (worse bool, err error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "A: %s (procs=%d seed=%d seconds=%g)\nB: %s (procs=%d seed=%d seconds=%g)\n",
		pathA, a.Procs, a.Seed, a.Seconds, pathB, b.Procs, b.Seed, b.Seconds)
	for _, w := range spec.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		fmt.Fprintf(out, "%s (%d vs %d runs)\n", w.Name, len(wa.Runs), len(wb.Runs))
		fmt.Fprintf(out, "  %-14s %-5s %12s %25s %12s %25s %7s %6s  %s\n",
			"metric", "unit", "A median", "A quartiles", "B median", "B quartiles", "change", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			va, vb := wa.values(m.Name), wb.values(m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			aq1, amed, aq3 := quartiles(va)
			bq1, bmed, bq3 := quartiles(vb)
			v := verdict(m, va, vb)
			worse = worse || v == "worse"
			fmt.Fprintf(out, "  %-14s %-5s %12.4f %25s %12.4f %25s %+6.1f%% %5.0f%%  %s\n",
				m.Name, m.Unit, amed, fmt.Sprintf("[%.4f, %.4f]", aq1, aq3), bmed, fmt.Sprintf("[%.4f, %.4f]", bq1, bq3),
				100*(bmed-amed)/amed, 100*m.Bound, v)
		}
		fa, fb := wa.failFrac(), wb.failFrac()
		v := "same"
		if fb > fa {
			v, worse = "worse", true
		}
		fmt.Fprintf(out, "  %-14s %-5s %12.6f %25s %12.6f %25s %7s %6s  %s\n", "fail_frac", "frac", fa, "", fb, "", "", "", v)
	}
	return worse, nil
}
