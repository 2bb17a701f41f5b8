// Package costs is the one ledger of the repository's allocation and heap
// budgets. testdata/costs.txt at the module root holds one row per line,
// under a line naming the test that reads it:
//
//	<Test>:
//	<pkg>/<row> <value> <unit> exact
//	<pkg>/<row> <value> <unit> max <ceiling> [race max <ceiling>]
//
// A budget test reads all of its rows into one Rows, through the one heap
// reader (Rows.Heap) and the one malloc counter (Rows.Allocs), and hands
// them to Rows.Check, which holds the rows listed under that test's name
// for the packages it read: each must be read, and each reading must be
// listed there. An exact row fails when its reading differs
// from its value; a max row fails over its ceiling, and also more than 20 %
// under its value, so that a gain shows as a diff of costs.txt as a loss
// does. A failing row prints the line to commit. Under the race detector,
// whose instrumentation allocates on its own account, Check holds only the
// rows that carry a race ceiling, and only to that ceiling.
//
// It imports the standard library only, so the internal tests of any
// package can import it; only _test.go files may (TestSurface in the module
// root refuses any other importer).
package costs

import (
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Rows is one package's readings, by row name.
type Rows map[string]float64

// Heap reads into row name the live heap that build's result retains, per
// n. build calls mark once what is not to be counted is in place, and
// returns what is to be. A reading is the live heap after build returns,
// its result still reachable, minus the live heap at mark, each read after
// two collections (a sync.Pool gives up its contents only over two). The
// first reading of a process can trail the settled one, so one is taken
// and thrown away first, and the row is the median of three builds: a
// single reading ran twice its usual value about once in a hundred runs
// while other test binaries ran beside it. Under the race detector, whose
// shadow memory is not the program's, Heap neither builds nor reads.
func (r Rows) Heap(name string, n int, build func(mark func()) any) {
	if Race {
		return
	}
	live := func() float64 {
		runtime.GC()
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return float64(s[0].Value.Uint64())
	}
	live()
	reads := make([]float64, 3)
	for i := range reads {
		before := math.NaN() // a build that never calls mark reads NaN, which Check refuses
		v := build(func() { before = live() })
		reads[i] = (live() - before) / float64(n)
		runtime.KeepAlive(v)
	}
	slices.Sort(reads)
	r[name] = math.Round(reads[1])
}

// Allocs reads into row name the heap allocations that one call of f makes
// after one call of warm (which may be nil), per n, and returns the bytes
// they take, per n. Both run at GOMAXPROCS 1, as testing.AllocsPerRun runs
// its function, and with the collector off: a collection that starts
// between the warm-up and the count, or inside it, empties the sync.Pools,
// and the count then holds each pool's refill (a zero-allocation batch of
// netsim read 2 to 4 allocations in 200 that way).
func (r Rows) Allocs(name string, n int, warm, f func()) (bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if warm != nil {
		warm()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	r[name] = float64(after.Mallocs-before.Mallocs) / float64(n)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// Check logs every reading of r and holds it to the rows that
// testdata/costs.txt, found from this source file's path, lists under t's
// top-level test for the packages r read.
func (r Rows) Check(t testing.TB) {
	t.Helper()
	_, self, _, _ := runtime.Caller(0)
	file, err := os.ReadFile(filepath.Join(filepath.Dir(self), "..", "..", "testdata", "costs.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range slices.Sorted(maps.Keys(r)) {
		t.Logf("%s %s", name, num(r[name]))
	}
	test, _, _ := strings.Cut(t.Name(), "/")
	for _, msg := range check(string(file), r, Race, test) {
		t.Error(msg)
	}
}

// header is a line naming the test that reads the rows below it.
var header = regexp.MustCompile(`^(Test\w*):$`)

// row is one line of the ledger: the package of the row, its value, unit
// and check, the check's ceiling, and the race ceiling if it has one.
var row = regexp.MustCompile(`^(\S+)/\S+ +(\d+(?:\.\d+)?) +(\S+) +(exact|max +(\d+(?:\.\d+)?)( +race +max +(\d+(?:\.\d+)?))?)$`)

// check holds readings, made by test, to the rows the ledger file lists
// under test for their packages, and says what fails.
func check(file string, readings Rows, race bool, test string) (errs []string) {
	pkgs := make(map[string]bool)
	for name := range readings {
		pkgs[strings.Split(name, "/")[0]] = true
	}
	lines, owner := make(map[string]int), ""
	for i, text := range strings.Split(file, "\n") {
		if text = strings.TrimSpace(text); text == "" || text[0] == '#' {
			continue
		} else if h := header.FindStringSubmatch(text); h != nil {
			owner = h[1]
			continue
		}
		name := strings.Fields(text)[0]
		at, m := fmt.Sprintf("costs.txt:%d: %s", i+1, name), row.FindStringSubmatch(text)
		if m == nil {
			errs = append(errs, at+": malformed row; want <pkg>/<row> <value> <unit> exact|max N [race max N]")
			continue
		} else if owner == "" {
			errs = append(errs, at+": no <Test>: line above this row names the test that reads it")
			continue
		} else if prev := lines[name]; prev != 0 {
			errs = append(errs, fmt.Sprintf("%s duplicates line %d", at, prev))
			continue
		}
		lines[name] = i + 1
		v, read := readings[name]
		if owner != test {
			if read {
				errs = append(errs, fmt.Sprintf("%s is read by %s but listed under %s:", at, test, owner))
			}
			continue
		}
		value, ceiling, raceCeiling := atof(m[2]), atof(m[5]), atof(m[7])
		commit := fmt.Sprintf("; the line to commit: %s %s %s %s", name, num(v), m[3], m[4])
		switch exact := m[4] == "exact"; {
		case !read:
			if pkgs[m[1]] && (!race || m[6] != "") {
				errs = append(errs, fmt.Sprintf("%s: %s does not read this row", at, test))
			}
		case race:
			if m[6] != "" && !(v <= raceCeiling) {
				errs = append(errs, fmt.Sprintf("%s reads %s under the race detector, over its race ceiling %s", at, num(v), m[7]))
			}
		case exact && num(v) != num(value):
			errs = append(errs, fmt.Sprintf("%s reads %s, not %s%s", at, num(v), m[2], commit))
		case !exact && !(v <= ceiling):
			errs = append(errs, fmt.Sprintf("%s reads %s, over its ceiling %s%s, if the ceiling is raised on purpose", at, num(v), m[5], commit))
		case !exact && v < 0.8*value:
			errs = append(errs, fmt.Sprintf("%s reads %s, more than 20 %% under its value %s%s", at, num(v), m[2], commit))
		}
	}
	for _, name := range slices.Sorted(maps.Keys(readings)) {
		if lines[name] == 0 {
			errs = append(errs, fmt.Sprintf("%s reads %s and has no row in costs.txt; add one below the line %s: as %[1]s %[2]s <unit> max %[2]s", name, num(readings[name]), test))
		}
	}
	return errs
}

// atof reads a number the row pattern matched, or an empty match as 0.
func atof(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64) // the pattern admits only decimals
	return v
}

// num formats a reading to at most four decimals.
func num(v float64) string {
	return strconv.FormatFloat(math.Round(v*1e4)/1e4, 'f', -1, 64)
}
