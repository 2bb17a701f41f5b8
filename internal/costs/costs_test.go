package costs

import (
	"math"
	"strings"
	"testing"
)

// TestCheck holds the ledger's rules: each case fails with the one message
// named, or passes where want is empty.
func TestCheck(t *testing.T) {
	const file = "# a comment\n\nTestM:\nm/a 1 allocs exact\nm/b 10 B max 20 race max 40\nn/c 5 B max 5\nTestN:\nm/e 1 B max 1\n"
	for _, c := range []struct {
		name, file string
		rows       Rows
		race       bool
		want       string
	}{
		{"passes", file, Rows{"m/a": 1, "m/b": 19}, false, ""},
		{"exact differs", file, Rows{"m/a": 2, "m/b": 10}, false, "reads 2, not 1; the line to commit: m/a 2 allocs exact"},
		{"over the ceiling", file, Rows{"m/a": 1, "m/b": 21}, false, "over its ceiling 20; the line to commit: m/b 21 B max 20 race max 40"},
		{"a gain", file, Rows{"m/a": 1, "m/b": 7.9}, false, "under its value 10; the line to commit: m/b 7.9 B max 20 race max 40"},
		{"race holds its ceilings only", file, Rows{"m/a": 5, "m/b": 40}, true, ""},
		{"over the race ceiling", file, Rows{"m/a": 1, "m/b": 41}, true, "over its race ceiling 40"},
		{"malformed", "TestM:\nm/a 1 allocs\n", Rows{}, false, "costs.txt:2: m/a: malformed row"},
		{"malformed number", "TestM:\nm/a 1 allocs max x\n", Rows{}, false, "costs.txt:2: m/a: malformed row"},
		{"no test line", "m/a 1 allocs exact\n", Rows{}, false, "costs.txt:1: m/a: no <Test>: line above"},
		{"duplicated", "TestM:\nm/a 1 allocs exact\nTestN:\nm/a 1 allocs exact\n", Rows{"m/a": 1}, false, "costs.txt:4: m/a duplicates line 2"},
		{"not read", file, Rows{"m/a": 1}, false, "costs.txt:5: m/b: TestM does not read this row"},
		{"listed under another test", file, Rows{"m/a": 1, "m/b": 10, "m/e": 1}, false, "costs.txt:8: m/e is read by TestM but listed under TestN:"},
		{"not in the file", file, Rows{"m/a": 1, "m/b": 10, "m/d": 3}, false, "add one below the line TestM: as m/d 3 <unit> max 3"},
		{"a heap build that never marked", file, Rows{"m/a": 1, "m/b": math.NaN()}, false, "reads NaN, over its ceiling"},
	} {
		errs := check(c.file, c.rows, c.race, "TestM")
		if c.want == "" && len(errs) != 0 || c.want != "" && (len(errs) != 1 || !strings.Contains(errs[0], c.want)) {
			t.Errorf("%s: %q, want %q", c.name, errs, c.want)
		}
	}
}
