package shift

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	{"core.SharedHistory.History", "internal/sim's sampling tests compare history contents through it"},
	{"core.SharedHistory.Rotations", "internal/sim's adaptive-generator tests count generator handovers"},
	{"freelist.Trim", "the root package's tests empty the free lists through it (emptyFreeLists); its product callers are in its own package: the idle timer and TrimUnlessRunning"},
	{"history.BitsPerRecord", "FIDELITY.md's sizing.record_bits row measures it (fidelity_test.go)"},
	{"history.Buffer.WritePos", "internal/core's script golden and internal/sim's sampling tests read the write pointer"},
	{"race.Enabled", "tests of three packages skip their allocation and heap gates under the race detector, and a _test.go file cannot be imported by another package's tests"},
	{"trace.Record.Validate", "internal/workload's tests hold generated records to the codec's validity rule"},
}

// TestProductReachable fails for every exported func, method, var and
// const of internal/* that no other package's non-test file reaches
// and reachExceptions does not name, and for every row of
// reachExceptions that names no such symbol.
func TestProductReachable(t *testing.T) {
	pkgs := productPackages(t)
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

// The product's packages, loaded once for the three gates that read them
// (read only: the gates share them).
var (
	productOnce sync.Once
	productPkgs []*reachPkg
	productErr  error
)

// productPackages returns this module's type-checked non-test packages.
func productPackages(t *testing.T) []*reachPkg {
	t.Helper()
	productOnce.Do(func() { productPkgs, productErr = parseModule(".") })
	if productErr != nil {
		t.Fatal(productErr)
	}
	return productPkgs
}

// loadModule is parseModule for a fixture module, failing t on an error.
func loadModule(t *testing.T, root string) []*reachPkg {
	t.Helper()
	pkgs, err := parseModule(root)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// parseModule parses and type-checks every non-test package of the
// module rooted at root (the standard library from source). Directories
// named testdata, or starting with "." or "_", and nested modules
// (benchmark/) are not part of it.
func parseModule(root string) ([]*reachPkg, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
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
		// The files a plain go build compiles: build constraints hold.
		parsed, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			ok, err := build.Default.MatchFile(dir, fi.Name())
			return err == nil && ok && !strings.HasSuffix(fi.Name(), "_test.go")
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
		return nil, err
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
			Defs:  map[*ast.Ident]types.Object{},
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
			return nil, fmt.Errorf("type-checking %s: %v", path, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
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
	ifaces := libraryInterfaces(pkgs)
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

// libraryInterfaces returns error and each of stdInterfaces that one of
// pkgs imports the package of: the interfaces through which the standard
// library calls the module's methods.
func libraryInterfaces(pkgs []*reachPkg) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, p := range pkgs {
		for _, imp := range p.types.Imports() {
			for _, si := range stdInterfaces {
				if obj := imp.Scope().Lookup(si[1]); imp.Path() == si[0] && obj != nil {
					ifaces = append(ifaces, obj.Type().Underlying().(*types.Interface))
				}
			}
		}
	}
	return ifaces
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

// cacheOnly is the reason for the fields only cache.Cache writes: the
// product steps ICache and LLCBank, and only benchmark/ runs Cache, whose
// counters and eviction reports its callers never read. ROADMAP item 3
// deletes Cache, and the rows go with it.
const cacheOnly = "only cache.Cache writes it, and only benchmark/ runs Cache (ROADMAP item 3)"

// writeOnlyExceptions is every struct field of internal/* that non-test
// code writes and never reads, kept on purpose. Like reachExceptions, a
// row whose field is gone, read or json-tagged fails the gate.
var writeOnlyExceptions = []reachException{
	{"cache.Evicted.Block", cacheOnly},
	{"cache.Evicted.Pointer", cacheOnly},
	{"cache.Stats.Evictions", cacheOnly},
	{"cache.Stats.Hits", cacheOnly},
	{"cache.Stats.Inserts", cacheOnly},
	{"cache.Stats.Misses", cacheOnly},
	{"cache.Stats.PrefetchDiscards", cacheOnly},
	{"cache.Stats.PrefetchHits", cacheOnly},
	{"cache.Stats.PrefetchInserted", cacheOnly},
}

// TestNoWriteOnlyFields fails for every struct field of internal/* that
// the module's non-test files write but never read and
// writeOnlyExceptions does not name, and for every stale row of
// writeOnlyExceptions. Such a field is work the product does for no
// reader — a counter bumped on a hot path that only a test looks at —
// so it goes, and what the test checked is checked through behaviour.
func TestNoWriteOnlyFields(t *testing.T) {
	pkgs := productPackages(t)
	for _, f := range writeOnlyFindings(pkgs, writeOnlyExceptions) {
		t.Error(f)
	}
}

// TestWriteOnlyFindings runs the field gate over the fixture module: a
// counter only ever incremented, a field set only as a composite-
// literal key and a counter read only by its own accumulators are
// findings; a field read once and a json-tagged wire field are not; and
// exception rows naming a read, a tagged and a deleted field are stale.
func TestWriteOnlyFindings(t *testing.T) {
	pkgs := loadModule(t, filepath.Join("testdata", "reach"))
	symbols := func(exceptions []reachException) string {
		var got []string
		for _, f := range writeOnlyFindings(pkgs, exceptions) {
			got = append(got, f.symbol)
		}
		return strings.Join(got, " ")
	}
	if got, want := symbols(nil), "lib.Counter.hits lib.Counter.late lib.Counter.set"; got != want {
		t.Errorf("no exceptions: findings %q, want %q", got, want)
	}
	got := symbols([]reachException{
		{"lib.Counter.hits", "kept on purpose"},
		{"lib.Counter.Wire", "its field is json-tagged"},
		{"lib.Counter.seen", "its field is read"},
		{"lib.Gone.x", "its field was deleted"},
	})
	if want := "lib.Counter.Wire lib.Counter.late lib.Counter.seen lib.Counter.set lib.Gone.x"; got != want {
		t.Errorf("exceptions: findings %q, want %q", got, want)
	}
}

// writeOnlyFindings is the field gate's core. A field is written where
// it is an assignment target (x.f = v, x.f += v), an x.f++ or x.f--, or
// a composite literal's key (T{f: v}); every other use names it as a
// value and is a read, except a self-feeding one: a use of f inside the
// value written to f, joined to it only by + and - (x.f += y.f,
// T{f: a.f - b.f}), is an accumulator carrying the count along, not a
// reader of it. A field written through a larger target
// (x.f[i] = v, x.f.g = v) counts as read, so the gate reports only what
// it is sure of. A field with a json tag is read by the encoder. It
// reports every field of a named struct type of internal/* that is
// written and not read, and every exception that names no such field.
func writeOnlyFindings(pkgs []*reachPkg, exceptions []reachException) []reachFinding {
	written := map[*types.Var]bool{}
	read := map[*types.Var]bool{}
	for _, p := range pkgs {
		writes := map[*ast.Ident]bool{}
		selfFed := map[*ast.Ident]bool{}
		// feeds marks each use of field in value that reaches the value
		// only through + and -: a read that flows back into the field.
		feeds := func(field *ast.Ident, value ast.Expr) {
			obj := p.info.Uses[field]
			var walk func(e ast.Expr)
			walk = func(e ast.Expr) {
				switch e := ast.Unparen(e).(type) {
				case *ast.BinaryExpr:
					if e.Op == token.ADD || e.Op == token.SUB {
						walk(e.X)
						walk(e.Y)
					}
				case *ast.SelectorExpr:
					if obj != nil && p.info.Uses[e.Sel] == obj {
						selfFed[e.Sel] = true
					}
				}
			}
			walk(value)
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						writes[sel.Sel] = true
						accumulates := n.Tok == token.ASSIGN || n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN
						if accumulates && len(n.Rhs) == len(n.Lhs) {
							feeds(sel.Sel, n.Rhs[i])
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						writes[sel.Sel] = true
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						writes[id] = true
						feeds(id, n.Value)
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if selfFed[id] {
				continue
			}
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if writes[id] {
					written[v.Origin()] = true
				} else {
					read[v.Origin()] = true
				}
			}
		}
	}

	writeOnly := map[string]bool{}
	for _, p := range pkgs {
		if !strings.Contains(p.path+"/", "/internal/") {
			continue
		}
		var fields func(owner string, st *ast.StructType)
		fields = func(owner string, st *ast.StructType) {
			for _, fd := range st.Fields.List {
				tagged := false
				if fd.Tag != nil {
					tag, _ := strconv.Unquote(fd.Tag.Value)
					name, ok := reflect.StructTag(tag).Lookup("json")
					tagged = ok && name != "-"
				}
				for _, id := range fd.Names {
					symbol := owner + "." + id.Name
					if inner, ok := fd.Type.(*ast.StructType); ok {
						fields(symbol, inner)
					}
					v, _ := p.info.Defs[id].(*types.Var)
					if v != nil && written[v] && !read[v] && !tagged {
						writeOnly[symbol] = true
					}
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						fields(p.types.Name()+"."+ts.Name.Name, st)
					}
				}
				return true
			})
		}
	}

	excepted := map[string]bool{}
	for _, e := range exceptions {
		excepted[e.symbol] = true
	}
	var findings []reachFinding
	for symbol := range writeOnly {
		if !excepted[symbol] {
			findings = append(findings, reachFinding{symbol,
				"non-test code writes it and nothing reads it: delete it, or give it a row saying why it stays"})
		}
	}
	for _, e := range exceptions {
		if !writeOnly[e.symbol] {
			findings = append(findings, reachFinding{e.symbol, fmt.Sprintf(
				"stale exception (%s): the field is gone, read or json-tagged; drop the row", e.reason)})
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].symbol < findings[j].symbol })
	return findings
}

// discardedExceptions is every result of a module func or method that
// every non-test call site discards, kept on purpose. A row names the
// result as the gate reports it ("wal.Open result 2", counting from 0);
// a row whose result is gone or read fails the gate.
var discardedExceptions = []reachException{
	{"jobs.Job.EventsSince result 0", "benchmark/ follows a job's events through it (ROADMAP item 3)"},
	{"wal.Open result 2", "benchmark/ opens logs with the four-result form (ROADMAP item 3); product callers read the tail through Log.TailDiscarded"},
}

// TestNoDiscardedResults fails for every result of a module func or
// method, interface methods included, that every non-test call site
// discards and discardedExceptions does not name, and for every stale
// row. A result nobody reads is work the callee does for no one — or an
// error nobody handles — so it is deleted, or handled where it is an
// error.
func TestNoDiscardedResults(t *testing.T) {
	pkgs := productPackages(t)
	for _, f := range discardedFindings(pkgs, discardedExceptions) {
		t.Error(f)
	}
}

// TestDiscardedFindings runs the result gate over the fixture module: a
// result called only as a statement, a second result only ever assigned
// to _, and an interface method whose every caller drops its error are
// findings; a result read once, an interface method one caller reads
// and a function also used as a value are not; and exception rows
// naming a read, a deleted and a value-used func's result are stale.
func TestDiscardedFindings(t *testing.T) {
	pkgs := loadModule(t, filepath.Join("testdata", "reach"))
	symbols := func(exceptions []reachException) string {
		var got []string
		for _, f := range discardedFindings(pkgs, exceptions) {
			got = append(got, f.symbol)
		}
		return strings.Join(got, ", ")
	}
	if got, want := symbols(nil), "lib.Discarded result 0, lib.Pair result 1, lib.Sink.Flush result 0"; got != want {
		t.Errorf("no exceptions: findings %q, want %q", got, want)
	}
	got := symbols([]reachException{
		{"lib.Discarded result 0", "kept on purpose"},
		{"lib.Pair result 0", "its result is read"},
		{"lib.Callback result 0", "its func is used as a value"},
		{"lib.Gone result 0", "its func was deleted"},
	})
	if want := "lib.Callback result 0, lib.Gone result 0, lib.Pair result 0, lib.Pair result 1, lib.Sink.Flush result 0"; got != want {
		t.Errorf("exceptions: findings %q, want %q", got, want)
	}
}

// discardedFindings is the result gate's core. A call used as a
// statement, also under go or defer, discards all its results; an
// assignment or var declaration discards those it gives to _; every
// other call reads them all. It reports each result of a module func or
// method that some non-test call site names and none reads, a method
// judged by its direct calls and an interface method by the calls made
// through the interface. A func also used as a value is skipped (who
// calls it is out of sight), as is a method that satisfies error or one
// of stdInterfaces (the standard library calls it). Every exception that
// names no such result is reported too.
func discardedFindings(pkgs []*reachPkg, exceptions []reachException) []reachFinding {
	module := map[*types.Package]bool{}
	for _, p := range pkgs {
		module[p.types] = true
	}
	ifaces := libraryInterfaces(pkgs)

	type usage struct {
		calls   int
		read    []bool // per result: some call site reads it
		asValue bool
	}
	uses := map[*types.Func]*usage{}
	all := func(int) bool { return true }
	for _, p := range pkgs {
		callOf := map[*ast.Ident]*ast.CallExpr{}       // a callee's name → its call
		discards := map[*ast.CallExpr]func(int) bool{} // results a call drops
		assign := func(lhs, rhs []ast.Expr) {
			blank := func(e ast.Expr) bool {
				id, ok := e.(*ast.Ident)
				return ok && id.Name == "_"
			}
			if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok && len(rhs) == 1 {
				discards[call] = func(i int) bool { return i < len(lhs) && blank(lhs[i]) }
				return
			}
			for i, r := range rhs {
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && i < len(lhs) && blank(lhs[i]) {
					discards[call] = all
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					fun := ast.Unparen(n.Fun)
					switch x := fun.(type) {
					case *ast.IndexExpr:
						fun = x.X
					case *ast.IndexListExpr:
						fun = x.X
					}
					switch x := fun.(type) {
					case *ast.Ident:
						callOf[x] = n
					case *ast.SelectorExpr:
						callOf[x.Sel] = n
					}
				case *ast.ExprStmt:
					if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
						discards[call] = all
					}
				case *ast.GoStmt:
					discards[n.Call] = all
				case *ast.DeferStmt:
					discards[n.Call] = all
				case *ast.AssignStmt:
					assign(n.Lhs, n.Rhs)
				case *ast.ValueSpec:
					if len(n.Values) > 0 {
						lhs := make([]ast.Expr, len(n.Names))
						for i, id := range n.Names {
							lhs[i] = id
						}
						assign(lhs, n.Values)
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || !module[fn.Pkg()] {
				continue
			}
			fn = fn.Origin()
			u := uses[fn]
			if u == nil {
				u = &usage{read: make([]bool, fn.Type().(*types.Signature).Results().Len())}
				uses[fn] = u
			}
			call := callOf[id]
			if call == nil {
				u.asValue = true
				continue
			}
			u.calls++
			drops := discards[call]
			for i := range u.read {
				if drops == nil || !drops(i) {
					u.read[i] = true
				}
			}
		}
	}

	discarded := map[string]string{} // symbol → why
	for fn, u := range uses {
		if u.calls == 0 || u.asValue {
			continue
		}
		sig := fn.Type().(*types.Signature)
		name := path.Base(fn.Pkg().Path()) + "."
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				if !types.IsInterface(named) && satisfiesUsedInterface(named, fn, ifaces) {
					continue
				}
				name += named.Obj().Name() + "."
			}
		}
		name += fn.Name()
		for i, read := range u.read {
			if !read {
				qual := func(p *types.Package) string { return p.Name() }
				discarded[fmt.Sprintf("%s result %d", name, i)] = fmt.Sprintf(
					"all %d non-test call sites discard this %s: delete the result, handle it, or give it a row saying why it stays",
					u.calls, types.TypeString(sig.Results().At(i).Type(), qual))
			}
		}
	}

	excepted := map[string]bool{}
	for _, e := range exceptions {
		excepted[e.symbol] = true
	}
	var findings []reachFinding
	for symbol, why := range discarded {
		if !excepted[symbol] {
			findings = append(findings, reachFinding{symbol, why})
		}
	}
	for _, e := range exceptions {
		if _, ok := discarded[e.symbol]; !ok {
			findings = append(findings, reachFinding{e.symbol, fmt.Sprintf(
				"stale exception (%s): the result is gone, read, or its func is used as a value; drop the row", e.reason)})
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].symbol < findings[j].symbol })
	return findings
}
