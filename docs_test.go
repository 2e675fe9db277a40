package shift

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// This file is the documentation gate CI's docs job runs: every
// exported symbol in the public API surface must carry a doc comment
// stating its contract, and every relative link in the user-facing
// markdown must resolve. Both checks are pure stdlib (go/ast + a small
// link scanner), so the gate needs no external tooling.

// docLintDirs is the API surface under the doc-comment contract: the
// root package, the store subsystem it re-exports backends from, the
// async job subsystem behind shiftd's /v1/jobs API, the workload spec
// compiler behind LoadSpec, the shared request validator, the cluster
// coordinator behind shiftd's -peers/-worker roles, and the
// write-ahead log behind -state-dir durability.
var docLintDirs = []string{".", "internal/store", "internal/jobs", "internal/spec", "internal/validate", "internal/cluster", "internal/wal"}

// TestExportedSymbolsDocumented fails for every exported top-level
// symbol, method, struct field, or interface method without a doc
// comment.
func TestExportedSymbolsDocumented(t *testing.T) {
	for _, dir := range docLintDirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					checkDeclDocumented(t, fset, decl)
				}
			}
		}
	}
}

// checkDeclDocumented reports every undocumented exported symbol a
// top-level declaration introduces.
func checkDeclDocumented(t *testing.T, fset *token.FileSet, decl ast.Decl) {
	t.Helper()
	undocumented := func(pos token.Pos, kind, name string) {
		t.Errorf("%s: exported %s %s has no doc comment", fset.Position(pos), kind, name)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !receiverExported(d) {
			return
		}
		if d.Doc == nil {
			undocumented(d.Pos(), "function", d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				if !sp.Name.IsExported() {
					continue
				}
				// A doc comment may sit on the type or on a
				// single-spec declaration.
				if d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
					undocumented(sp.Pos(), "type", sp.Name.Name)
				}
				checkFieldsDocumented(t, fset, sp)
			case *ast.ValueSpec:
				var exported []string
				for _, n := range sp.Names {
					if n.IsExported() {
						exported = append(exported, n.Name)
					}
				}
				if len(exported) == 0 {
					continue
				}
				// A group-level doc comment ("// The three core
				// types...") covers every name in the group.
				if d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
					undocumented(sp.Pos(), "const/var", strings.Join(exported, ", "))
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver type is itself
// exported (methods on unexported types are not public API).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver Foo[T]
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// checkFieldsDocumented reports undocumented exported struct fields and
// interface methods; a doc comment on a multi-name field covers every
// name.
func checkFieldsDocumented(t *testing.T, fset *token.FileSet, sp *ast.TypeSpec) {
	t.Helper()
	var fields *ast.FieldList
	switch tt := sp.Type.(type) {
	case *ast.StructType:
		fields = tt.Fields
	case *ast.InterfaceType:
		fields = tt.Methods
	default:
		return
	}
	for _, f := range fields.List {
		var exported []string
		for _, n := range f.Names {
			if n.IsExported() {
				exported = append(exported, n.Name)
			}
		}
		if len(exported) == 0 || f.Doc != nil || f.Comment != nil {
			continue
		}
		t.Errorf("%s: exported field/method %s.%s has no doc comment",
			fset.Position(f.Pos()), sp.Name.Name, strings.Join(exported, ", "))
	}
}

// TestPaperTextOnlyInFidelity keeps paperRows the only copy of the
// paper's values: a string literal containing "paper" in any other root
// non-test file is a value cited by hand, which nothing checks.
func TestPaperTextOnlyInFidelity(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && fi.Name() != "fidelity.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "paper") {
						t.Errorf("%s: string %s cites the paper outside fidelity.go; add a row to paperRows", fset.Position(lit.Pos()), lit.Value)
					}
				}
				return true
			})
		}
	}
}

// markdownLink matches [text](target); targets are checked unless they
// are absolute URLs or intra-page anchors.
var markdownLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinks fails for every relative link in the user-facing
// markdown (README, ARCHITECTURE, FIDELITY, examples) whose target does
// not exist.
func TestMarkdownLinks(t *testing.T) {
	var docs []string
	for _, top := range []string{"README.md", "ARCHITECTURE.md", "FIDELITY.md"} {
		if _, err := os.Stat(top); err != nil {
			t.Errorf("missing %s", top)
			continue
		}
		docs = append(docs, top)
	}
	err := filepath.WalkDir("examples", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".md") {
			docs = append(docs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, doc := range docs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range markdownLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if u, err := url.Parse(target); err == nil && u.Scheme != "" {
				continue // external URL; availability is not ours to gate
			}
			if strings.HasPrefix(target, "#") {
				continue // intra-page anchor
			}
			target = strings.SplitN(target, "#", 2)[0]
			resolved := filepath.Join(filepath.Dir(doc), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", doc, m[1], resolved)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Log("no relative links found (nothing to check)")
	}
	// The README must document every binary under cmd/ — the "which
	// binary do I want" contract.
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && !strings.Contains(string(readme), e.Name()) {
			t.Errorf("README.md does not mention cmd/%s", e.Name())
		}
	}
}

// TestEveryExampleTested fails for every directory under examples/
// with a main.go and no main_test.go: an example's README claims are
// asserted by a test next to it, or the example goes.
func TestEveryExampleTested(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no examples found")
	}
	for _, m := range mains {
		if _, err := os.Stat(filepath.Join(filepath.Dir(m), "main_test.go")); err != nil {
			t.Errorf("%s has no main_test.go: run the example in a test and assert its README's claims", filepath.Dir(m))
		}
	}
}

// testFuncs returns the names of the Test functions in dir's _test.go
// files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
					names = append(names, fd.Name.Name)
				}
			}
		}
	}
	return names
}

// TestWorkflowRunPatternsMatchTests keeps CI's by-name steps honest:
// every alternative of every `go test -run` pattern in the workflow must
// match at least one Test function in the packages that step names, so
// renaming or deleting a test cannot silently turn a CI step into one
// that runs nothing and passes. Patterns meant to match nothing (`^$`,
// `NONE`, in front of -bench and -fuzz) and steps over `./...` are not
// checked.
func TestWorkflowRunPatternsMatchTests(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	body, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	// A trailing backslash continues a command on the next line.
	text := regexp.MustCompile(`\\\n\s*`).ReplaceAllString(string(body), " ")
	checked := 0
	for _, line := range strings.Split(text, "\n") {
		// The patterns are single-quoted and hold no spaces, so splitting
		// on spaces and dropping the quotes is all the shell there is.
		fields := strings.Fields(strings.TrimPrefix(strings.TrimSpace(line), "run: "))
		if len(fields) < 2 || fields[0] != "go" || fields[1] != "test" {
			continue
		}
		for i, f := range fields {
			fields[i] = strings.Trim(f, "'")
		}
		var pattern string
		var dirs []string
		for i := 2; i < len(fields); i++ {
			switch f := fields[i]; {
			case f == "-run" && i+1 < len(fields):
				i++
				pattern = fields[i]
			case strings.HasPrefix(f, "-run="):
				pattern = strings.TrimPrefix(f, "-run=")
			case f == "." || strings.HasPrefix(f, "./") && !strings.HasSuffix(f, "..."):
				dirs = append(dirs, f)
			}
		}
		if pattern == "" || pattern == "^$" || pattern == "NONE" || len(dirs) == 0 {
			continue
		}
		var names []string
		for _, dir := range dirs {
			names = append(names, testFuncs(t, dir)...)
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("%s: -run alternative %q: %v", workflow, alt, err)
				continue
			}
			matched := false
			for _, name := range names {
				matched = matched || re.MatchString(name)
			}
			if !matched {
				t.Errorf("%s: `%s`: -run alternative %q matches no Test function in %s",
					workflow, strings.Join(fields, " "), alt, strings.Join(dirs, " "))
			}
			checked++
		}
	}
	// Exact on purpose: the workflow's no-race step names five footprint
	// gates and TestFidelity, and its docs step six gates, so a format
	// drift that hides one from the parse above fails here; a step added
	// by name raises the count with it.
	if checked != 12 {
		t.Errorf("checked %d -run alternatives, want the workflow's 12 (five footprint gates and TestFidelity, six docs gates) — has its format changed?", checked)
	}
}

// TestReadmeListsExperiments holds README's list of experiments to the
// registry: every name of Experiments, in order, and all.
func TestReadmeListsExperiments(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(readme), "\nExperiments: ")
	if !ok {
		t.Fatal("README has no Experiments: line")
	}
	list, _, _ = strings.Cut(list, ".\n")
	var names []string
	for _, f := range strings.Split(list, ",") {
		names = append(names, strings.Trim(strings.TrimSpace(f), "`"))
	}
	if want := append(Experiments(), "all"); !slices.Equal(names, want) {
		t.Errorf("README lists experiments %v, want %v", names, want)
	}
}
