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
// program: no non-test file may import a package of testSupport. It also
// holds netsim's one determinism rule — every draw keyed by (seed, round,
// probe), nothing hooked into the forwarding walk in arrival order: no
// non-test file may name forwardingHook at all, whether it declares it (a
// function, method, interface method or field) or selects it (a call).
//
// Two more rules hold the non-test files outside bench/. The packages whose
// output is a pure function of (seed, config) — netsim, measure and anomaly
// — neither read the wall clock (time.Now) nor import math/rand; topo, which
// draws the topology, is the exception. And there is one attribution rule:
// which header octets say a response answers a probe is
// internal/tracer/flowkey's to decide, so no file names the tracer's deleted
// second copy (matchQuoted, matchUDPChecksum, a type expect) and the alias
// file internal/tracer/live/match.go does not exist.
//
// It also holds the one probing path, in every Go file, tests included:
// there is one TTL ladder (engine.trace), every transport batches, and the
// one live transport is the mux. No file may declare (as a function, method,
// type, constant, variable, field or interface method) a name in
// deletedPaths, the names the second ladder and the per-probe adapter went
// by, nor select live.New or live.Config, the deleted second live transport.
//
// Two more "one X" decisions are held the same way. One front end: the
// binaries parse the live flags, open the mux, arm the capture and take
// their signals through internal/cli, so no non-test file under cmd/
// declares a name of the copies it replaced (liveDestinations,
// probeCounters) or selects live.NewMux, pcap.CreateCapture or
// signal.Notify. One run state: campaign and daemon keep one
// per-destination record, digest, checkpoint body and restore path, so no
// Go file outside bench/, tests included, declares configDigest,
// destHealth or HealthState, or imports repro/internal/core, and that
// directory does not exist. One origin: netsim's hosts and routers stamp
// what they originate (source address, TTL, IP ID) through one origin, so
// no non-test file of netsim declares routerRespondLocal, marshalFromRouter
// or marshalICMP, or a method respond or nextIPID on Host or Router.
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

// forwardingHook is the name of the hook the flip gadget once used to run
// inside netsim's forwarding walk.
const forwardingHook = "OnSend"

// deletedPaths maps the names of deleted second probing paths to what they
// were.
var deletedPaths = map[string]string{
	"traceSequential": "the second TTL ladder",
	"AsBatch":         "the run-time check for a transport without a batch path",
	"perProbe":        "the per-probe loop around a transport without a batch path",
}

// deletedLive are the live package's selectors of its deleted second
// transport.
var deletedLive = map[string]bool{"New": true, "Config": true}

// checkProbingPath fails on a declaration named in deletedPaths and on a
// selector of deletedLive through the live package (or anything called
// live).
func checkProbingPath(t *testing.T, fset *token.FileSet, f *ast.File) {
	liveName := "live"
	for _, im := range f.Imports {
		if ip, _ := strconv.Unquote(im.Path.Value); ip == "repro/internal/tracer/live" && im.Name != nil {
			liveName = im.Name.Name
		}
	}
	declaredIdents(f, func(id *ast.Ident) {
		if what := deletedPaths[id.Name]; what != "" {
			t.Errorf("%s: %s declares %s, the name of %s: there is one TTL ladder and every transport batches", fset.Position(id.Pos()), f.Name.Name, id.Name, what)
		}
	})
	ast.Inspect(f, func(n ast.Node) bool {
		if n, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := n.X.(*ast.Ident); ok && (x.Name == "live" || x.Name == liveName) && deletedLive[n.Sel.Name] {
				t.Errorf("%s: %s.%s is the deleted second live transport: the one live transport is live.Mux", fset.Position(n.Pos()), x.Name, n.Sel.Name)
			}
		}
		return true
	})
}

// declaredIdents calls fn with every name f declares: functions, methods,
// types, constants, variables, fields and interface methods.
func declaredIdents(f *ast.File, fn func(*ast.Ident)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			fn(n.Name)
		case *ast.TypeSpec:
			fn(n.Name)
		case *ast.ValueSpec:
			for _, id := range n.Names {
				fn(id)
			}
		case *ast.Field:
			for _, id := range n.Names {
				fn(id)
			}
		}
		return true
	})
}

// secondFrontEnd are the names of the binaries' copies of the front end.
var secondFrontEnd = map[string]bool{"liveDestinations": true, "probeCounters": true}

// frontEndCalls are, by import path, the selectors only internal/cli may
// use among the binaries: opening the mux, creating the capture, taking
// signals.
var frontEndCalls = map[string]string{
	"repro/internal/tracer/live": "NewMux",
	"repro/internal/pcap":        "CreateCapture",
	"os/signal":                  "Notify",
}

// checkOneFrontEnd holds a non-test file under cmd/ to the one front end:
// it declares no name of secondFrontEnd and selects none of frontEndCalls,
// whether through the package's own name or the name the file imports it
// by.
func checkOneFrontEnd(t *testing.T, fset *token.FileSet, f *ast.File) {
	calls := map[string]string{} // package name as written -> the selector refused
	for ip, sel := range frontEndCalls {
		calls[path.Base(ip)] = sel
	}
	for _, im := range f.Imports {
		if ip, _ := strconv.Unquote(im.Path.Value); frontEndCalls[ip] != "" && im.Name != nil {
			calls[im.Name.Name] = frontEndCalls[ip]
		}
	}
	declaredIdents(f, func(id *ast.Ident) {
		if secondFrontEnd[id.Name] {
			t.Errorf("%s: %s declares %s, a name of a binary's own front end: the binaries share internal/cli", fset.Position(id.Pos()), f.Name.Name, id.Name)
		}
	})
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && calls[x.Name] == sel.Sel.Name {
				t.Errorf("%s: %s.%s under cmd/: the binaries open the mux and the capture, and take their signals, through internal/cli", fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
			}
		}
		return true
	})
}

// secondRunState are the names of the run state's deleted copies, and
// deletedCore the package that held a third pair measurement.
var (
	secondRunState = map[string]bool{"configDigest": true, "destHealth": true, "HealthState": true}
	deletedCore    = "repro/internal/core"
)

// checkOneRunState holds a Go file outside bench/ to the one run state.
func checkOneRunState(t *testing.T, fset *token.FileSet, f *ast.File) {
	for _, im := range f.Imports {
		if ip, _ := strconv.Unquote(im.Path.Value); ip == deletedCore {
			t.Errorf("%s: imports %s: campaign and daemon share measure's run state", fset.Position(im.Pos()), ip)
		}
	}
	declaredIdents(f, func(id *ast.Ident) {
		if secondRunState[id.Name] {
			t.Errorf("%s: %s declares %s, a name of a second run state: campaign and daemon share measure.DestRun, measure.RunDigest and measure.Checkpoint", fset.Position(id.Pos()), f.Name.Name, id.Name)
		}
	})
}

// purePackages are the packages whose non-test files may neither call
// time.Now nor import math/rand.
var purePackages = map[string]bool{
	"repro/internal/netsim":  true,
	"repro/internal/measure": true,
	"repro/internal/anomaly": true,
}

// deletedAttribution are the identifiers of the tracer's deleted second
// attribution rule: the quoted-header check and its UDP checksum test. Its
// expectation struct was a type named expect.
var deletedAttribution = map[string]bool{"matchQuoted": true, "matchUDPChecksum": true}

// deletedMatchFile is the file the mux once reached flowkey through.
const deletedMatchFile = "internal/tracer/live/match.go"

// checkProgramRules holds a non-test file of package pkg, outside bench/, to
// the determinism rule of the pure packages and to the one attribution
// rule.
func checkProgramRules(t *testing.T, fset *token.FileSet, pkg string, f *ast.File) {
	pure, timeName := purePackages[pkg], ""
	for _, im := range f.Imports {
		switch ip, _ := strconv.Unquote(im.Path.Value); {
		case pure && (ip == "math/rand" || ip == "math/rand/v2"):
			t.Errorf("%s: %s imports %s; its draws are keyed by (seed, round, probe), never by a shared generator", fset.Position(im.Pos()), pkg, ip)
		case ip == "time":
			timeName = "time"
			if im.Name != nil {
				timeName = im.Name.Name
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if deletedAttribution[n.Name] {
				t.Errorf("%s: %s is the deleted second attribution rule: internal/tracer/flowkey decides which response answers a probe", fset.Position(n.Pos()), n.Name)
			}
		case *ast.TypeSpec:
			if n.Name.Name == "expect" {
				t.Errorf("%s: type expect is the deleted second attribution rule: internal/tracer/flowkey decides which response answers a probe", fset.Position(n.Pos()))
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && pure && x.Name == timeName && n.Sel.Name == "Now" {
				t.Errorf("%s: %s reads the wall clock; its output is a pure function of (seed, config)", fset.Position(n.Pos()), pkg)
			}
		}
		return true
	})
}

// deletedOrigins are the names of netsim's deleted copies of the way a box
// originates a packet, and deletedBoxMethods the methods Host and Router
// stamped with: a box originates through its origin (origin.nextIPID,
// origin.icmp, origin.answer).
var (
	deletedOrigins    = map[string]bool{"routerRespondLocal": true, "marshalFromRouter": true, "marshalICMP": true}
	deletedBoxMethods = map[string]bool{"respond": true, "nextIPID": true}
)

// checkOneOrigin holds a non-test file of netsim to one origin: it declares
// no name of deletedOrigins and no method of deletedBoxMethods on Host or
// Router.
func checkOneOrigin(t *testing.T, fset *token.FileSet, f *ast.File) {
	declaredIdents(f, func(id *ast.Ident) {
		if deletedOrigins[id.Name] {
			t.Errorf("%s: netsim declares %s, a copy of how a box originates a packet: hosts and routers originate through origin", fset.Position(id.Pos()), id.Name)
		}
	})
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || !deletedBoxMethods[fd.Name.Name] {
			continue
		}
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok && (id.Name == "Host" || id.Name == "Router") {
			t.Errorf("%s: netsim declares %s.%s: hosts and routers originate through origin", fset.Position(fd.Name.Pos()), id.Name, fd.Name.Name)
		}
	}
}

// testSupport lists the packages only _test.go files may import.
var testSupport = map[string]bool{
	"repro/internal/ckpt/ckpttest": true,
	"repro/internal/simtest":       true,
}

// scanSurface parses every Go file under the module root outside testdata
// and hidden directories, holding each to checkProbingPath, each outside
// bench/ to checkOneRunState, each non-test file under cmd/ to
// checkOneFrontEnd, and each of netsim to checkOneOrigin. Of the non-test
// files it returns each library package's exported top-level identifiers,
// keyed "importpath.Name", and for each such key the import paths of the
// packages whose files select it.
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
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(p, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			checkProbingPath(t, fset, f)
			inBench := pkg == "repro/bench" || strings.HasPrefix(pkg, "repro/bench/")
			if !inBench {
				checkOneRunState(t, fset, f)
			}
			if strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			if !inBench {
				checkProgramRules(t, fset, pkg, f)
			}
			if pkg == "repro/internal/netsim" {
				checkOneOrigin(t, fset, f)
			}
			if strings.HasPrefix(pkg, "repro/cmd/") {
				checkOneFrontEnd(t, fset, f)
			}
			imports := map[string]string{}
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				if testSupport[ip] {
					t.Errorf("%s imports the test-support package %s: only _test.go files may", filepath.Join(p, e.Name()), ip)
				}
				if strings.HasPrefix(ip, "repro/") {
					name := path.Base(ip)
					if im.Name != nil {
						name = im.Name.Name
					}
					imports[name] = ip
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == forwardingHook {
					t.Errorf("%s: %s hooks into the forwarding walk; netsim draws are keyed by (seed, round, probe), never by arrival order", fset.Position(id.Pos()), id.Name)
				}
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
	return exports, namedBy
}

// TestSurface holds the module's exports to the ledger.
func TestSurface(t *testing.T) {
	exports, namedBy := scanSurface(t)
	if _, err := os.Stat(deletedMatchFile); err == nil {
		t.Errorf("%s exists: the mux reaches internal/tracer/flowkey directly", deletedMatchFile)
	}
	if _, err := os.Stat(strings.TrimPrefix(deletedCore, "repro/")); err == nil {
		t.Errorf("%s exists: campaign and daemon share measure's run state", deletedCore)
	}

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
