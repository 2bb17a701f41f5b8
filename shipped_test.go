package repro

import (
	"go/parser"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/costs"
)

// TestShippedLines reads the row program/shipped-lines of testdata/costs.txt:
// the lines of code the binaries are built from. It counts the non-blank,
// non-comment lines of the non-test files of every package of this module
// that a command under cmd/ links, whatever their build constraints, so the
// count is the same on every platform. A change that adds lines raises the
// row in its own diff, and one that deletes lines lowers it.
func TestShippedLines(t *testing.T) {
	cmds, err := filepath.Glob("cmd/*")
	if err != nil || len(cmds) == 0 {
		t.Fatalf("no commands under cmd/: %v", err)
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	lines := 0
	for queue := cmds; len(queue) > 0; queue = queue[1:] {
		dir := queue[0]
		if seen[dir] {
			continue
		}
		seen[dir] = true
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			lines += codeLines(fset, name, src)
			f, err := parser.ParseFile(fset, name, src, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if rest, ok := strings.CutPrefix(p, "repro/"); ok {
					queue = append(queue, filepath.FromSlash(rest))
				}
			}
		}
	}
	rows := costs.Rows{"program/shipped-lines": float64(lines)}
	rows.Check(t)
}

// codeLines counts the lines of src that hold a token: blank lines and
// lines holding only comments do not count. A token spanning lines, a raw
// string, counts each of them.
func codeLines(fset *token.FileSet, name string, src []byte) int {
	f := fset.AddFile(name, -1, len(src))
	var s scanner.Scanner
	s.Init(f, src, nil, 0) // comments are skipped
	code := map[int]bool{}
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return len(code)
		}
		if tok == token.SEMICOLON && lit == "\n" {
			continue // inserted at a line's end, not written
		}
		line := f.Line(pos)
		for i := range strings.Count(lit, "\n") + 1 {
			code[line+i] = true
		}
	}
}
