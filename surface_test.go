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
// are out of its reach. The same scan keeps test support out of the
// program: no non-test file may import a package of testSupport.
//
// Three more rules hold the non-test files outside bench/. The packages whose
// output is a pure function of (seed, config) — netsim, measure and anomaly
// — neither read the wall clock (time.Now) nor import math/rand; topo, which
// draws the topology, is the exception. netsim's draws are keyed by
// (seed, round, probe), never by arrival order, so no struct netsim declares
// has a field of func type: nothing can hook into the forwarding walk. And
// the transports (tracer and the packages under it) sit below the
// measurement layers: none imports measure or daemon.
//
// The call-site ledger, testdata/callsites.txt, holds the same files to
// every "one X" decision — one TTL ladder, one live transport, one front
// end, one run state, one attribution rule, one origin — as the functions
// allowed to name each primitive the decision rests on. A function that names
// a primitive fails unless the ledger lists it, whatever it is called, and so
// does a listed function that no longer names it (readLedger has the format).
//
//	go test -run TestSurface -v .   # also prints every name with its users
//	                                # and every primitive with its callers

import (
	"fmt"
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

const (
	surfaceList  = "testdata/surface.txt"
	callsiteList = "testdata/callsites.txt"
	costsList    = "testdata/costs.txt"
)

// surfaceReasons is the fixed set of reasons an unused export may stay.
var surfaceReasons = map[string]bool{
	"enum": true, // a member of an enumeration whose type other packages use
	"wire": true, // a wire, JSON or checkpoint type
	"type": true, // the type of a value another package receives
	"test": true, // test support
}

// purePackages are the packages whose non-test files may neither call
// time.Now nor import math/rand.
var purePackages = map[string]bool{
	"repro/internal/netsim":  true,
	"repro/internal/measure": true,
	"repro/internal/anomaly": true,
}

// checkProgramRules holds a non-test file of package pkg, outside bench/, to
// the determinism rule — the pure packages neither import math/rand nor read
// the wall clock, and netsim declares no struct field of func type — and to
// the layering rule: a transport imports neither measure nor daemon.
func checkProgramRules(errorf func(string, ...any), fset *token.FileSet, pkg string, f *ast.File) {
	pure, timeName := purePackages[pkg], ""
	transport := pkg == "repro/internal/tracer" || strings.HasPrefix(pkg, "repro/internal/tracer/")
	for _, im := range f.Imports {
		switch ip, _ := strconv.Unquote(im.Path.Value); {
		case pure && (ip == "math/rand" || ip == "math/rand/v2"):
			errorf("%s: %s imports %s; its draws are keyed by (seed, round, probe), never by a shared generator", fset.Position(im.Pos()), pkg, ip)
		case transport && (ip == "repro/internal/measure" || ip == "repro/internal/daemon"):
			errorf("%s: the transport %s imports %s; measurement sits on the transports, never under them", fset.Position(im.Pos()), pkg, ip)
		case ip == "time":
			timeName = "time"
			if im.Name != nil {
				timeName = im.Name.Name
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			for _, field := range n.Fields.List {
				if _, ok := field.Type.(*ast.FuncType); ok && pkg == "repro/internal/netsim" {
					errorf("%s: a netsim struct holds a func, a hook into the forwarding walk; netsim draws are keyed by (seed, round, probe), never by arrival order", fset.Position(field.Pos()))
				}
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && pure && x.Name == timeName && n.Sel.Name == "Now" {
				errorf("%s: %s reads the wall clock; its output is a pure function of (seed, config)", fset.Position(n.Pos()), pkg)
			}
		}
		return true
	})
}

// testSupport lists the packages only _test.go files may import.
var testSupport = map[string]bool{
	"repro/internal/ckpt/ckpttest": true,
	"repro/internal/costs":         true,
	"repro/internal/simtest":       true,
}

// ledger is the call-site ledger: for each primitive, the callers allowed to
// name it. Packages are named by import path, less "repro/internal/" or
// "repro/" (cmd/measured, tracer/live, os/signal).
type ledger map[string]map[string]bool

// readList calls fn with the number and text of each line of the file name
// that is not blank once a '#' comment is cut.
func readList(t *testing.T, name string, fn func(line int, text string)) {
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range strings.Split(string(b), "\n") {
		if text, _, _ = strings.Cut(text, "#"); strings.TrimSpace(text) != "" {
			fn(i+1, text)
		}
	}
}

// readLedger reads callsiteList. Each line is "primitive ...: caller ...".
// A primitive is pkg.Name, a selector through an import of pkg or a bare call
// inside pkg, or .Name, a method or field selected on anything. A caller is
// the top-level declaration that names the primitive: pkg.Func, or
// pkg.Type.Method for a method of Type.
func readLedger(t *testing.T) ledger {
	l := ledger{}
	readList(t, callsiteList, func(line int, text string) {
		prims, callers, _ := strings.Cut(text, ":")
		if len(strings.Fields(prims)) == 0 || len(strings.Fields(callers)) == 0 {
			t.Errorf("%s:%d: want \"primitive ...: caller ...\", got %q", callsiteList, line, text)
		}
		for _, p := range strings.Fields(prims) {
			if l[p] != nil {
				t.Errorf("%s:%d: %s is listed twice", callsiteList, line, p)
			}
			l[p] = map[string]bool{}
			for _, c := range strings.Fields(callers) {
				l[p][c] = true
			}
		}
	})
	return l
}

// ledgerPkg is how the ledger names the package with import path ip.
func ledgerPkg(ip string) string {
	return strings.TrimPrefix(strings.TrimPrefix(ip, "repro/internal/"), "repro/")
}

// fileImports maps the name each import of f is selected by to its path.
func fileImports(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, im := range f.Imports {
		ip, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(ip)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = ip
	}
	return imports
}

// declName is how the ledger names top-level declaration d as a caller:
// Func, Type.Method, or the first name a type, var or const declaration
// declares.
func declName(d ast.Decl) string {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return d.Name.Name
		}
		recv := "" // the first identifier: T in T, *T, T[K] and *T[K, V]
		ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && recv == "" {
				recv = id.Name
			}
			return recv == ""
		})
		return recv + "." + d.Name.Name
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				return s.Name.Name
			case *ast.ValueSpec:
				return s.Names[0].Name
			}
		}
	}
	return ""
}

// collect records in found, for each primitive of l that a top-level
// declaration of f (a file of package pkg) names, the declaration as a
// caller and the first place it names the primitive.
func (l ledger) collect(fset *token.FileSet, pkg string, f *ast.File, found map[string]map[string]token.Position) {
	imports := fileImports(f)
	for _, d := range f.Decls {
		caller := ledgerPkg(pkg) + "." + declName(d)
		ast.Inspect(d, func(n ast.Node) bool {
			prim := ""
			switch n := n.(type) {
			case *ast.SelectorExpr:
				prim = "." + n.Sel.Name
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					prim = ledgerPkg(imports[x.Name]) + prim
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok {
					prim = ledgerPkg(pkg) + "." + id.Name
				}
			}
			if l[prim] != nil && found[prim] == nil {
				found[prim] = map[string]token.Position{}
			}
			if _, seen := found[prim][caller]; l[prim] != nil && !seen {
				found[prim][caller] = fset.Position(n.Pos())
			}
			return true
		})
	}
}

// check returns a line for each caller in found that l does not list and
// for each caller l lists that found does not hold.
func (l ledger) check(found map[string]map[string]token.Position) []string {
	var bad []string
	for _, prim := range slices.Sorted(maps.Keys(l)) {
		for _, caller := range slices.Sorted(maps.Keys(found[prim])) {
			if !l[prim][caller] {
				bad = append(bad, fmt.Sprintf("%s: %s names %s, but %s does not list it as a caller: go through a listed one, or add it to the ledger with the reason", found[prim][caller], caller, prim, callsiteList))
			}
		}
		for _, caller := range slices.Sorted(maps.Keys(l[prim])) {
			if _, ok := found[prim][caller]; !ok {
				bad = append(bad, fmt.Sprintf("%s lists %s as a caller of %s, but it does not name it: remove it from the line", callsiteList, caller, prim))
			}
		}
	}
	return bad
}

// scanSurface parses every non-test Go file under the module root outside
// testdata and hidden directories, and holds each outside bench/ to
// checkProgramRules and the call-site ledger l. It returns each library
// package's exported top-level identifiers, keyed "importpath.Name"; for
// each such key the import paths of the packages whose files select it; and
// the callers of each primitive of l.
func scanSurface(t *testing.T, l ledger) (exports map[string]bool, namedBy map[string][]string, found map[string]map[string]token.Position) {
	exports, namedBy, found = map[string]bool{}, map[string][]string{}, map[string]map[string]token.Position{}
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
			inBench := pkg == "repro/bench" || strings.HasPrefix(pkg, "repro/bench/")
			if !inBench {
				checkProgramRules(t.Errorf, fset, pkg, f)
				l.collect(fset, pkg, f, found)
			}
			imports := fileImports(f)
			for _, ip := range imports {
				if testSupport[ip] {
					t.Errorf("%s imports the test-support package %s: only _test.go files may", filepath.Join(p, e.Name()), ip)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && strings.HasPrefix(imports[x.Name], "repro/") {
						key := imports[x.Name] + "." + sel.Sel.Name
						if !slices.Contains(namedBy[key], pkg) {
							namedBy[key] = append(namedBy[key], pkg)
						}
					}
				}
				return true
			})
			if f.Name.Name == "main" || inBench {
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
	return exports, namedBy, found
}

// TestSurface holds the module's exports to the surface ledger and its call
// sites to the call-site ledger.
func TestSurface(t *testing.T) {
	l := readLedger(t)
	exports, namedBy, found := scanSurface(t, l)
	for _, bad := range l.check(found) {
		t.Error(bad)
	}
	if testing.Verbose() {
		for _, prim := range slices.Sorted(maps.Keys(l)) {
			t.Logf("%-50s %s", prim, strings.Join(slices.Sorted(maps.Keys(found[prim])), " "))
		}
	}

	listed := map[string]string{}
	readList(t, surfaceList, func(line int, text string) {
		switch fields := strings.Fields(text); {
		case len(fields) != 2 || !surfaceReasons[fields[1]]:
			t.Errorf("%s:%d: want \"importpath.Name reason\" with reason one of enum, wire, type, test; got %q", surfaceList, line, text)
		case listed[fields[0]] != "":
			t.Errorf("%s:%d: %s is listed twice", surfaceList, line, fields[0])
		default:
			listed[fields[0]] = fields[1]
		}
	})

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

// TestSurfaceCatchesRenamedCopies plants second copies of "one X" decisions,
// each under a name no earlier rule knew, and requires TestSurface's rules
// to report each: a call site as a caller the ledger does not list, a
// netsim hook as a func field. Every caller the ledger lists must be
// reported as stale where the sources hold none of them.
func TestSurfaceCatchesRenamedCopies(t *testing.T) {
	l := readLedger(t)
	for _, c := range []struct{ pkg, src, want string }{
		{"repro/internal/tracer", "func (e *engine) stepwise() { e.build(e) }", "tracer.engine.stepwise names .build, but"},
		{"repro/internal/tracer/live", "func (c *rawTransport) send() { c.conn.WriteBatch(c.out) }", "tracer/live.rawTransport.send names .WriteBatch, but"},
		{"repro/cmd/measured", `import "os/signal"; func ownSignals(c chan os.Signal) { signal.Notify(c) }`, "cmd/measured.ownSignals names os/signal.Notify, but"},
		{"repro/internal/daemon", `import "repro/internal/measure"; func configHash(cfg Config) uint64 { return measure.RunDigest(cfg.Dests, cfg.Probe) }`, "daemon.configHash names measure.RunDigest, but"},
		{"repro/internal/daemon", "func probeAgain(d *Daemon, j job) { d.prober.MeasurePair(j.dest, 0, nil) }", "daemon.probeAgain names .MeasurePair, but"},
		{"repro/internal/measure", "func analyze(a *Accumulator, ps []Pair) { for i := range ps { a.Fold(&ps[i]) } }", "measure.analyze names .Fold, but"},
		{"repro/internal/tracer", `import "repro/internal/packet"; func quotedMatches(b []byte, m *packet.ICMP) bool { return packet.ParseICMPInto(b, m) == nil }`, "tracer.quotedMatches names packet.ParseICMPInto, but"},
		{"repro/internal/netsim", `import "repro/internal/packet"; func stampAgain(ip *packet.IPv4, m *packet.ICMP) { packet.MarshalIPv4ICMPInto(nil, ip, m) }`, "netsim.stampAgain names packet.MarshalIPv4ICMPInto, but"},
		{"repro/internal/measure", `import "repro/internal/ckpt"; func appendFlags(b []byte, loop, cycle bool) []byte { return ckpt.AppendBool(ckpt.AppendBool(b, loop), cycle) }`, "measure.appendFlags names ckpt.AppendBool, but"},
		{"repro/internal/daemon", `import "repro/internal/ckpt"; func (ck *Checkpoint) encodeDest(b []byte, d netip.Addr) []byte { return ckpt.AppendAddr(b, d) }`, "daemon.Checkpoint.encodeDest names ckpt.AppendAddr, but"},
		{"repro/internal/netsim", "type tapped struct{ tap func([]byte) }", "a netsim struct holds a func"},
		{"repro/internal/tracer/replay", `import "repro/internal/measure"; var _ = measure.Config{}`, "the transport repro/internal/tracer/replay imports repro/internal/measure"},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "plant.go", "package p\n"+c.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		checkProgramRules(func(format string, a ...any) { got = append(got, fmt.Sprintf(format, a...)) }, fset, c.pkg, f)
		found := map[string]map[string]token.Position{}
		l.collect(fset, c.pkg, f, found)
		got = append(got, l.check(found)...)
		if !slices.ContainsFunc(got, func(s string) bool { return strings.Contains(s, c.want) }) {
			t.Errorf("%s: %s: no report %q among:\n%s", c.pkg, c.src, c.want, strings.Join(got, "\n"))
		}
	}
	callers := 0
	for _, cs := range l {
		callers += len(cs)
	}
	if stale := l.check(nil); len(stale) != callers || !slices.ContainsFunc(stale, func(s string) bool { return strings.Contains(s, "lists tracer.engine.trace as a caller of .build") }) {
		t.Errorf("with no sources, the ledger's %d callers should each be reported stale; got:\n%s", callers, strings.Join(stale, "\n"))
	}
}

// costsTests holds each "<Test>:" line of the cost ledger, ledger, to a test
// function: a row names its package by the last element of its directory
// (replay for internal/tracer/replay; program for the module root), which
// must be one directory of dirs, and a _test.go file there must declare the
// func the row's <Test>: line names. internal/costs holds a test's readings to its rows, but cannot see
// a row under a test that no longer exists. It returns what fails.
func costsTests(ledger string, dirs map[string][]string) (bad []string) {
	fset := token.NewFileSet()
	tests, seen, owner := map[string]map[string]bool{}, map[string]bool{}, ""
	for i, line := range strings.Split(ledger, "\n") {
		switch line = strings.TrimSpace(line); {
		case line == "" || line[0] == '#':
		case strings.HasSuffix(line, ":"):
			owner = strings.TrimSuffix(line, ":")
		default:
			pkg, _, _ := strings.Cut(strings.Fields(line)[0], "/")
			if len(dirs[pkg]) != 1 {
				bad = append(bad, fmt.Sprintf("%s:%d: the package %s is %d directories of the module, not one", costsList, i+1, pkg, len(dirs[pkg])))
				continue
			}
			dir := dirs[pkg][0]
			if tests[dir] == nil {
				tests[dir] = map[string]bool{}
				files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
				for _, name := range files {
					f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
					if err != nil {
						bad = append(bad, err.Error())
						continue
					}
					for _, d := range f.Decls {
						if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
							tests[dir][fn.Name.Name] = true
						}
					}
				}
			}
			if !tests[dir][owner] && !seen[owner+" "+dir] {
				seen[owner+" "+dir] = true
				bad = append(bad, fmt.Sprintf("%s:%d: the rows of %s are listed under %s:, but no _test.go file of %s declares func %[4]s", costsList, i+1, pkg, owner, dir))
			}
		}
	}
	return bad
}

// TestCostsNameTests holds testdata/costs.txt to costsTests, and checks that
// costsTests reports a row under a test its package does not declare.
func TestCostsNameTests(t *testing.T) {
	dirs := map[string][]string{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p == "." {
			name = "program"
		} else if name == "testdata" || name == "bench" || strings.HasPrefix(name, ".") {
			return filepath.SkipDir
		}
		dirs[name] = append(dirs[name], p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := os.ReadFile(costsList)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range costsTests(string(ledger), dirs) {
		t.Error(bad)
	}
	planted := costsTests("TestLoadAllocBudgt:\nreplay/open-heap 30 B/record max 36\n", dirs)
	if len(planted) != 1 || !strings.Contains(planted[0], "no _test.go file of internal/tracer/replay declares func TestLoadAllocBudgt") {
		t.Errorf("a row under a misspelt test: got %q, want one report naming it", planted)
	}
}
