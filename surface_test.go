package repro

// The surface ledger. Every exported top-level identifier of the module's
// library packages must be named by some other package's non-test code — a
// binary under cmd/, an example, the benchmark module under bench/, or
// another library package — or be listed in testdata/surface.txt with one of
// the reasons below. A listed name that another package starts to use, or
// that no longer exists, fails too, so the list stays an exact map of what is
// exported for a reason other than a caller.
//
// The scan is syntactic (go/parser only): a name counts as used where a file
// that imports its package selects it (pkg.Name). Methods and struct fields
// are out of its reach.
//
//	go test -run TestSurface -v .   # also prints every name with its users

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const surfaceList = "testdata/surface.txt"

// surfaceReasons is the fixed set of reasons an unused export may stay.
var surfaceReasons = map[string]bool{
	"enum": true, // a member of an enumeration whose type other packages use
	"wire": true, // a wire, JSON or checkpoint type
	"type": true, // the type of a value another package receives
	"test": true, // test support
}

// scanSurface parses every non-test Go file under the module root. It
// returns each library package's exported top-level identifiers, keyed
// "importpath.Name", and for each such key the import paths of the packages
// whose files select it.
func scanSurface(t *testing.T) (exports map[string]bool, namedBy map[string][]string) {
	exports, namedBy = map[string]bool{}, map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		pkg := path.Join("repro", filepath.ToSlash(p))
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(p, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			imports := map[string]string{}
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				if strings.HasPrefix(ip, "repro/") {
					name := path.Base(ip)
					if im.Name != nil {
						name = im.Name.Name
					}
					imports[name] = ip
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
						key := imports[x.Name] + "." + sel.Sel.Name
						if !slices.Contains(namedBy[key], pkg) {
							namedBy[key] = append(namedBy[key], pkg)
						}
					}
				}
				return true
			})
			if f.Name.Name == "main" || pkg == "repro/bench" || strings.HasPrefix(pkg, "repro/bench/") {
				continue
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil && decl.Name.IsExported() {
						exports[pkg+"."+decl.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if spec.Name.IsExported() {
								exports[pkg+"."+spec.Name.Name] = true
							}
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								if n.IsExported() {
									exports[pkg+"."+n.Name] = true
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return exports, namedBy
}

// TestSurface holds the module's exports to the ledger.
func TestSurface(t *testing.T) {
	exports, namedBy := scanSurface(t)

	listed := map[string]string{}
	f, err := os.Open(surfaceList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(text)
		switch {
		case len(fields) == 0:
			continue
		case len(fields) != 2 || !surfaceReasons[fields[1]]:
			t.Errorf("%s:%d: want \"importpath.Name reason\" with reason one of enum, wire, type, test; got %q", surfaceList, line, sc.Text())
		case listed[fields[0]] != "":
			t.Errorf("%s:%d: %s is listed twice", surfaceList, line, fields[0])
		default:
			listed[fields[0]] = fields[1]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	unused := 0
	for _, name := range slices.Sorted(maps.Keys(exports)) {
		users := namedBy[name]
		if testing.Verbose() {
			t.Logf("%-50s %s", name, strings.Join(users, " "))
		}
		switch {
		case len(users) == 0 && listed[name] == "":
			unused++
			t.Errorf("%s is exported but no other package's non-test code names it: delete it, unexport it, or list it in %s with a reason", name, surfaceList)
		case len(users) == 0:
			unused++
		case listed[name] != "":
			t.Errorf("%s is listed in %s (%s) but %s names it: remove the line", name, surfaceList, listed[name], strings.Join(users, ", "))
		}
	}
	for name := range listed {
		if !exports[name] {
			t.Errorf("%s is listed in %s but is not an exported top-level identifier: remove the line", name, surfaceList)
		}
	}
	t.Logf("%d exported top-level identifiers, %d named by no other package's non-test code, %d listed", len(exports), unused, len(listed))
}
