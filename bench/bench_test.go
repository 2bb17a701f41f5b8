package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/tracer/live"
)

// toy is the size every workload runs at under test: 50 destinations, 8
// measured rounds after the warm-up.
func toy(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: 7, trace: trace, procs: 2, dests: 50, rounds: 8, flips: true, tmp: t.TempDir(),
	}
}

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	_, spec, err := findBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesProgram pins the metric and workload names BENCHMARK.json
// declares to the ones the program emits, with their units.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	checkSet := func(kind string, declared []metricSpec, emitted map[string]string) {
		seen := map[string]bool{}
		for _, m := range declared {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s metric name %q breaks the naming rule", kind, m.Name)
			}
			if unit, ok := emitted[m.Name]; !ok {
				t.Errorf("BENCHMARK.json declares %s metric %q, the program does not emit it", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s metric %q: unit %q declared, %q emitted", kind, m.Name, m.Unit, unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %q: better=%q", kind, m.Name, m.Better)
			}
			seen[m.Name] = true
		}
		for name := range emitted {
			if !seen[name] {
				t.Errorf("the program emits %s metric %q, BENCHMARK.json does not declare it", kind, name)
			}
		}
	}
	checkSet("end-to-end", spec.EndToEnd, endToEndUnits)
	checkSet("per-layer", spec.PerLayer, perLayerUnits)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q declared, %q in the program", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why-sentence", w.Name)
		}
	}
}

// TestWorkloadsToySize runs every workload untraced and traced at toy size:
// each must pass its own correctness checks and emit exactly the declared
// metrics, the end-to-end ones all nonzero.
func TestWorkloadsToySize(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(w.name+"/trace="+strconv.FormatBool(trace), func(t *testing.T) {
				o, err := runWorkload(toy(t, w.name, trace))
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range o.checks {
					if !c.ok {
						t.Errorf("check %q failed: %s", c.name, c.detail)
					}
				}
				r := o.result(trace)
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
				}
				want := endToEndUnits
				if trace {
					want = perLayerUnits
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(r.Metrics), len(want))
				}
				for name, v := range r.Metrics {
					if want[name] != v.Unit {
						t.Errorf("metric %q: unit %q, want %q", name, v.Unit, want[name])
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %q = %v, must never be 0", name, v.Value)
					}
				}
				if trace && o.layer["budget.coverage"] <= 0 {
					t.Errorf("traced run produced no budget: coverage %v", o.layer["budget.coverage"])
				}
			})
		}
	}
}

// TestStudyMatchesBinary shows the benchmark measures what the binary runs:
// a toy study_static in the schedule-free configuration (one worker, flips
// off) ends with the same canonical statistics, byte for byte, as
// cmd/anomaly-study run with the matching flags.
func TestStudyMatchesBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/anomaly-study")
	}
	c := toy(t, "study_static", false)
	c.procs, c.flips = 1, false
	o, err := runWorkload(c)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "stats.json")
	cmd := exec.Command("go", "run", "-C", "..", "./cmd/anomaly-study",
		"-dests", strconv.Itoa(c.dests), "-rounds", strconv.Itoa(warmupRounds+c.rounds), "-workers", "1",
		"-flips=false", "-seed", strconv.FormatInt(c.seed, 10), "-stats-json", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("anomaly-study: %v\n%s", err, msg)
	}
	want, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(o.stats, want) {
		t.Errorf("study_static statistics differ from anomaly-study's\nbench:\n%s\nbinary:\n%s", o.stats, want)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{4}); q1 != 4 || q2 != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "round_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "pairs_per_s", Better: "higher", Bound: 0.07}
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	cases := []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same within bound", lower, []float64{100, 101, 102}, []float64{104, 105, 106}, "same"},
		{"worse past bound", lower, []float64{100, 101, 102}, []float64{120, 121, 122}, "worse"},
		{"better, every run", lower, []float64{100, 101, 102}, []float64{80, 81, 82}, "better"},
		{"higher is better: a fall is worse", higher, []float64{1000, 1010, 1020}, []float64{900, 905, 910}, "worse"},
		{"higher is better: a rise is better", higher, []float64{1000, 1010, 1020}, []float64{1200, 1210, 1220}, "better"},
		{"spread wider than the bound", lower, []float64{80, 100, 130}, []float64{95, 125, 140}, "unresolved"},
		{"wide spread, yet every run beats", lower, []float64{80, 100, 130}, []float64{40, 50, 60}, "better"},
		{"set-up under 20 ms apart", setup, []float64{0.010, 0.011, 0.012}, []float64{0.020, 0.021, 0.022}, "same"},
		{"set-up over 20 ms and the bound apart", setup, []float64{0.100, 0.101, 0.102}, []float64{0.150, 0.151, 0.152}, "worse"},
	}
	for _, tc := range cases {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestBenchConnBoundedAndDeterministic drives the bench conn directly: its
// memory stays bounded by what is in flight, and what it loses depends on
// the probe's bytes and transmission count alone, not on the order of sends.
func TestBenchConnBoundedAndDeterministic(t *testing.T) {
	model := lossModel{salt: 99, loss: 0.3, dup: 0.1, reorder: true, attempts: 2}
	probe := func(i int) []byte { return []byte{byte(i), byte(i >> 8), 0xab, 0xcd} }
	echo := func(p []byte) ([]byte, bool) { return p, true }

	delivered := func(order []int) map[int]int {
		conn := newBenchConn(echo, model, nil)
		got := map[int]int{}
		buf := []live.Datagram{{Buf: make([]byte, 16)}}
		for _, i := range order {
			if _, err := conn.WriteBatch([]live.Datagram{{Buf: probe(i)}}); err != nil {
				t.Fatal(err)
			}
			for {
				n, err := conn.ReadBatch(buf)
				if err != nil {
					break
				}
				got[int(buf[0].Buf[0])|int(buf[0].Buf[1])<<8] += n
			}
			if len(conn.queue)+len(conn.free) > 4 {
				t.Fatalf("conn holds %d buffers with one probe in flight", len(conn.queue)+len(conn.free))
			}
		}
		return got
	}
	var forward, backward []int
	for i := 0; i < 2000; i++ {
		forward = append(forward, i, i) // every probe sent twice, as a retransmit follows a loss
		backward = append([]int{i, i}, backward...)
	}
	a, b := delivered(forward), delivered(backward)
	lost := 0
	for i := 0; i < 2000; i++ {
		if a[i] != b[i] {
			t.Fatalf("probe %d: %d copies delivered in one order, %d in the other", i, a[i], b[i])
		}
		if a[i] == 0 {
			lost++
		}
	}
	// Both transmissions lost: about loss² of the probes.
	if lost < 100 || lost > 260 {
		t.Errorf("%d of 2000 probes lost on both transmissions, want about 180", lost)
	}
}
