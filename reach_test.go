package shift

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// This file is the product's reachability gate: every exported func,
// method, var and const of internal/* must be reached from another
// package's non-test file, or carry a row in reachExceptions saying why
// it stays. Exported code that only its own package, or only tests,
// reach is API the product does not run; the gate finds it so that it
// is deleted, unexported or moved into a _test.go file. Like the docs
// gates it is pure stdlib (go/parser + go/types, the standard library
// type-checked from source), so it needs no tooling or download.

// reachException keeps one symbol the gate would report. symbol is
// written as the gate reports it: package name, then the receiver's
// type name for a method, then the name ("cache.New",
// "cache.Cache.CopyStateFrom").
type reachException struct {
	symbol, reason string
}

// benchmarkOnly is the reason for symbols that only benchmark/, a module
// of its own, calls: ROADMAP item 3 replaces those calls with the
// product's own paths, and the rows go with them.
const benchmarkOnly = "benchmark/ times it (ROADMAP item 3)"

// wholeEnum is the reason for the one value of an exported enum that
// only its own package names, while product code elsewhere names its
// siblings: the enum stays whole.
const wholeEnum = "a value of an enum other packages name the other values of"

// faultInjection is the reason for store.Fault's surface: the chaos
// suite in the root package injects failures through it, and a _test.go
// file cannot be imported by another package's tests.
const faultInjection = "the root package's chaos suite injects store failures through it"

// reachExceptions is every exported symbol of internal/* that stays
// without a non-test user in another package. A row whose symbol is gone
// or has since gained a user fails the gate, so the table cannot go
// stale.
var reachExceptions = []reachException{
	{"bpred.MustNewHybrid", benchmarkOnly},
	{"cache.Cache.CopyStateFrom", benchmarkOnly},
	{"cache.Cache.LookupInsert", benchmarkOnly},
	{"cache.New", benchmarkOnly},
	{"jobs.Manager.Submit", benchmarkOnly},
	{"jobs.New", benchmarkOnly},
	{"noc.New", benchmarkOnly},
	{"trace.Collect", benchmarkOnly},
	{"wal.Log.SetNoSync", benchmarkOnly},
	{"workload.CoreStream.View", benchmarkOnly},
	{"workload.Workload.NewCoreStream", benchmarkOnly},

	{"jobs.StateDone", wholeEnum},
	{"jobs.StateRunning", wholeEnum},
	{"sim.ModePrefetch", wholeEnum},
	{"store.BreakerClosed", wholeEnum},

	{"store.NewFault", faultInjection},
	{"store.Fault.FailNextLens", faultInjection},
	{"store.Fault.Injected", faultInjection},
	{"store.Fault.Ops", faultInjection},
	{"store.Fault.SetPlan", faultInjection},

	{"cache.ICache.Fingerprint", "internal/sim's sampling tests compare functional and detailed L1-I state with it"},
	{"cache.ICache.Replica", "internal/sim's batch tests check that a follower keeps a tags-only L1-I"},
	{"cache.ICache.SetBlocks", "internal/sim's batch tests read a follower's L1-I sets with it"},
	{"cache.LLCBank.Fingerprint", "internal/sim's sampling tests compare functional and detailed LLC state with it"},
	{"cache.LLCBank.PinnedCount", "internal/sim's tests count the history lines virtualized SHIFT pins in the LLC"},
	{"cluster.Coordinator.Probe", "cmd/shiftd's cluster tests probe on demand instead of waiting for the prober"},
	{"cluster.Worker.Batches", "cmd/shiftd's cluster tests count the batches a worker served"},
	{"core.SharedHistory.History", "internal/sim's sampling tests compare history contents through it"},
	{"core.SharedHistory.Rotations", "internal/sim's adaptive-generator tests count generator handovers"},
	{"core.SharedHistory.Stats", "internal/sim's tests read the shared history's counters"},
	{"history.BitsPerRecord", "FIDELITY.md's sizing.record_bits row measures it (fidelity_test.go)"},
	{"history.Buffer.Len", "internal/core's and internal/sim's tests read how many records a history holds"},
	{"sim.PrefetcherSpec.Name", "the root package's tests hold each design's figure label to its name"},
	{"trace.Record.Validate", "internal/workload's tests hold generated records to the codec's validity rule"},
}

// TestProductReachable fails for every exported func, method, var and
// const of internal/* that no other package's non-test file reaches
// and reachExceptions does not name, and for every row of
// reachExceptions that names no such symbol.
func TestProductReachable(t *testing.T) {
	pkgs := loadModule(t, ".")
	for _, f := range reachFindings(pkgs, reachExceptions) {
		t.Error(f)
	}
}

// TestReachFindings runs the gate's core over a fixture module whose
// answer is known: an export used from another package, a dead export,
// a method reached only through a `var _ I` assertion and a String
// method (fmt.Stringer) — only the second and third are findings — and
// exception rows that are stale because their symbol is gone or reached.
func TestReachFindings(t *testing.T) {
	pkgs := loadModule(t, filepath.Join("testdata", "reach"))
	symbols := func(exceptions []reachException) []string {
		var got []string
		for _, f := range reachFindings(pkgs, exceptions) {
			got = append(got, f.symbol)
		}
		return got
	}
	check := func(name string, got, want []string) {
		t.Helper()
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: findings %q, want %q", name, got, want)
		}
	}
	check("no exceptions", symbols(nil), []string{"lib.Dead", "lib.Square.Area"})
	check("exceptions", symbols([]reachException{
		{"lib.Dead", "kept on purpose"},
		{"lib.Gone", "its symbol was deleted"},
		{"lib.Used", "its symbol gained a user"},
	}), []string{"lib.Gone", "lib.Square.Area", "lib.Used"})
}

// reachPkg is one type-checked non-test package of the module.
type reachPkg struct {
	path  string // import path
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// reachFinding is one symbol the gate reports and why.
type reachFinding struct {
	symbol, why string
}

func (f reachFinding) String() string { return f.symbol + ": " + f.why }

// loadModule parses and type-checks every non-test package of the
// module rooted at root (the standard library from source). Directories
// named testdata, or starting with "." or "_", and nested modules
// (benchmark/) are not part of it.
func loadModule(t *testing.T, root string) []*reachPkg {
	t.Helper()
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		t.Fatalf("%s/go.mod names no module", root)
	}

	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → its non-test files
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		parsed, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		for _, p := range parsed {
			for _, f := range p.Files {
				files[path] = append(files[path], f)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Packages are checked on first import, so each is checked after
	// everything it imports; the standard library comes from source.
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*reachPkg{}
	var imp importerFunc
	check := func(path string) (*reachPkg, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		p := &reachPkg{path: path, files: files[path], info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		// Sort by file name so positions and errors read the same each run.
		sort.Slice(p.files, func(i, j int) bool {
			return fset.File(p.files[i].Pos()).Name() < fset.File(p.files[j].Pos()).Name()
		})
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(path, fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = tp
		checked[path] = p
		return p, nil
	}
	imp = func(path string) (*types.Package, error) {
		if _, ok := files[path]; !ok {
			return std.Import(path)
		}
		p, err := check(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}

	var paths []string
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	pkgs := make([]*reachPkg, 0, len(paths))
	for _, path := range paths {
		p, err := check(path)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdInterfaces are the standard-library interfaces a method reaches
// callers through without the module naming the interface: fmt prints a
// Stringer, container/heap drives a heap.Interface, encoding/json calls
// a marshaler, net/http serves a Handler.
var stdInterfaces = [][2]string{
	{"fmt", "Stringer"},
	{"container/heap", "Interface"},
	{"sort", "Interface"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"},
	{"encoding", "TextUnmarshaler"},
	{"net/http", "Handler"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"io", "Closer"},
	{"io", "ReaderAt"},
	{"io", "WriterTo"},
	{"io", "ReaderFrom"},
	{"io", "Seeker"},
}

// reachFindings is the gate's core. It reports every exported func,
// method, var and const of the module's internal/* packages that no
// other package's non-test file reaches and no exception names, and
// every exception that names no such symbol. A method also counts as
// reached when its receiver satisfies an interface whose method set
// holds it: error, one of stdInterfaces, or an interface some non-test
// file uses as the type of a value. A `var _ I = (*T)(nil)` assertion
// is not such a use: it gives a value of type *T, not of type I.
func reachFindings(pkgs []*reachPkg, exceptions []reachException) []reachFinding {
	// Every object a package's non-test files use, and whether a package
	// other than its own uses it.
	usedOutside := map[types.Object]bool{}
	usedInside := map[types.Object]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seenType := map[types.Type]bool{}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			if obj.Pkg() != p.types {
				usedOutside[obj] = true
			} else {
				usedInside[obj] = true
			}
		}
		for _, tv := range p.info.Types {
			if !tv.IsValue() || tv.Type == nil || seenType[tv.Type] {
				continue
			}
			seenType[tv.Type] = true
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, p := range pkgs {
		for _, imp := range p.types.Imports() {
			for _, si := range stdInterfaces {
				if imp.Path() != si[0] {
					continue
				}
				if obj := imp.Scope().Lookup(si[1]); obj != nil {
					ifaces = append(ifaces, obj.Type().Underlying().(*types.Interface))
				}
			}
		}
	}

	type candidate struct {
		obj    types.Object
		symbol string
	}
	var cands []candidate
	for _, p := range pkgs {
		if !strings.Contains(p.path+"/", "/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			switch obj := obj.(type) {
			case *types.Func, *types.Var, *types.Const:
				if obj.Exported() {
					cands = append(cands, candidate{obj, p.types.Name() + "." + name})
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if !m.Exported() || satisfiesUsedInterface(named, m, ifaces) {
						continue
					}
					cands = append(cands, candidate{m, p.types.Name() + "." + name + "." + m.Name()})
				}
			}
		}
	}

	excepted := map[string]bool{}
	for _, e := range exceptions {
		excepted[e.symbol] = true
	}
	var findings []reachFinding
	known := map[string]bool{}
	for _, c := range cands {
		if usedOutside[c.obj] {
			continue
		}
		known[c.symbol] = true
		if excepted[c.symbol] {
			continue
		}
		why := "no non-test file uses it: delete it, or move it into a _test.go file"
		if usedInside[c.obj] {
			why = "only its own package uses it: unexport it"
		}
		findings = append(findings, reachFinding{c.symbol, why})
	}
	for _, e := range exceptions {
		if !known[e.symbol] {
			findings = append(findings, reachFinding{e.symbol, fmt.Sprintf(
				"stale exception (%s): the symbol is gone or another package's non-test file reaches it; drop the row", e.reason)})
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].symbol < findings[j].symbol })
	return findings
}

// satisfiesUsedInterface reports whether named or its pointer
// implements one of ifaces whose method set includes m. A generic type
// is not checked (Implements leaves it unspecified): its methods count
// by their uses alone.
func satisfiesUsedInterface(named *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
