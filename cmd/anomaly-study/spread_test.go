package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var spreadFlag = flag.Bool("spread", false, "run TestSpread: the report at five seeds against testdata/spread.json")

// spreadArgs and spreadSeeds are the campaign TestSpread runs at each seed.
var (
	spreadArgs  = []string{"-dests", "2000", "-rounds", "40"}
	spreadSeeds = []int{1, 2, 3, 4, 5}
)

// spreadFile is testdata/spread.json: every report row's measured value at
// each seed, with its min, mean and max over the seeds, and the SHA-256 of
// each seed's -stats-json.
type spreadFile struct {
	Args  []string    `json:"args"`
	Seeds []int       `json:"seeds"`
	Stats []string    `json:"stats_sha256"`
	Rows  []spreadRow `json:"rows"`
}

type spreadRow struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
	Min    float64   `json:"min"`
	Mean   float64   `json:"mean"`
	Max    float64   `json:"max"`
}

// reportRows parses the paper-vs-measured table of a report: each row's
// name and its measured cell as a number (a percentage without its sign, a
// quantity without its unit word, or a count).
func reportRows(t *testing.T, stdout []byte) (names []string, values []float64) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	table := false
	for sc.Scan() {
		line := sc.Text()
		if !table {
			table = strings.HasPrefix(line, "statistic ")
			continue
		}
		// A row is "%-42s %12s %12s": name, paper, measured.
		if len(line) != 42+1+12+1+12 {
			t.Fatalf("report row %q is not 68 columns wide", line)
		}
		cell := strings.Fields(line[56:])[0]
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("report row %q: %v", line, err)
		}
		names = append(names, strings.TrimSpace(line[:42]))
		values = append(values, v)
	}
	if len(names) == 0 {
		t.Fatalf("no report table in:\n%s", stdout)
	}
	return names, values
}

// TestSpread is the evidence behind "no statistic moved" at more than one
// seed and scale: the study at -dests 2000 -rounds 40 and seeds 1 to 5 must
// print exactly the per-seed row values in testdata/spread.json and write
// -stats-json files with exactly its digests. It takes a few seconds per
// seed, so it runs only with -spread (CI's paper-study job); -spread -update
// rewrites the file from this build.
func TestSpread(t *testing.T) {
	if !*spreadFlag {
		t.Skip("runs with -spread")
	}
	got := spreadFile{Args: spreadArgs, Seeds: spreadSeeds}
	for i, seed := range spreadSeeds {
		stdout, stats := studyOutput(t, append(slices.Clone(spreadArgs), "-seed", strconv.Itoa(seed))...)
		sum := sha256.Sum256(stats)
		got.Stats = append(got.Stats, hex.EncodeToString(sum[:]))
		names, values := reportRows(t, stdout)
		if i == 0 {
			for _, name := range names {
				got.Rows = append(got.Rows, spreadRow{Name: name})
			}
		}
		if len(names) != len(got.Rows) {
			t.Fatalf("seed %d: %d report rows, seed %d had %d", seed, len(names), spreadSeeds[0], len(got.Rows))
		}
		for j := range got.Rows {
			got.Rows[j].Values = append(got.Rows[j].Values, values[j])
		}
	}
	for j := range got.Rows {
		r := &got.Rows[j]
		r.Min, r.Max = slices.Min(r.Values), slices.Max(r.Values)
		for _, v := range r.Values {
			r.Mean += v
		}
		r.Mean /= float64(len(r.Values))
	}

	path := filepath.Join("testdata", "spread.json")
	if *update {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -spread -update)", err)
	}
	var want spreadFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(want.Args, got.Args) || !slices.Equal(want.Seeds, got.Seeds) {
		t.Fatalf("%s was recorded at %v, seeds %v; this test runs %v, seeds %v", path, want.Args, want.Seeds, got.Args, got.Seeds)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s has %d rows, the report %d", path, len(want.Rows), len(got.Rows))
	}
	for j, w := range want.Rows {
		g := got.Rows[j]
		if w.Name != g.Name || !slices.Equal(w.Values, g.Values) {
			t.Errorf("%q: %v at seeds %v, %s holds %q: %v", g.Name, g.Values, got.Seeds, path, w.Name, w.Values)
		}
	}
	for i, seed := range got.Seeds {
		if got.Stats[i] != want.Stats[i] {
			t.Errorf("seed %d: -stats-json digest %s, %s holds %s", seed, got.Stats[i], path, want.Stats[i])
		}
	}
}
