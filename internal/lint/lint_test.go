package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestSelfTest holds every analyzer to its planted-violation fixture:
// all plants fire, nothing else does. This is the same contract
// `carslint -selftest` enforces in CI.
func TestSelfTest(t *testing.T) {
	results, err := SelfTest("../..")
	if err != nil {
		t.Fatalf("selftest: %v", err)
	}
	if len(results) != len(Analyzers) {
		t.Fatalf("selftest covered %d analyzers, want %d", len(results), len(Analyzers))
	}
	for _, r := range results {
		if r.Wanted == 0 {
			t.Errorf("%s: fixture has no planted violations", r.Analyzer)
		}
		for _, m := range r.Missing {
			t.Errorf("%s: planted violation did not fire: %s", r.Analyzer, m)
		}
		for _, u := range r.Unexpected {
			t.Errorf("%s: unexpected diagnostic (false positive on a clean twin): %s", r.Analyzer, u)
		}
	}
}

// loadTree loads the real module once for every test that needs it.
var loadTree = sync.OnceValues(func() (*Module, error) { return LoadModule("../..") })

// cleanOnTree runs each analyzer over the real module, scoped to its
// packages: the tree must stay clean, so any finding is a regression
// (or a new bug the analyzer just caught — fix the code, not the test).
func cleanOnTree(t *testing.T, analyzers ...*Analyzer) {
	t.Helper()
	mod, err := loadTree()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	facts := BuildFacts(mod)
	for _, a := range analyzers {
		diags, err := Run(a, mod, facts)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s", a.Name, d)
		}
	}
}

// requirePkgs fails unless a defends every one of want.
func requirePkgs(t *testing.T, a *Analyzer, want ...string) {
	t.Helper()
	for _, w := range want {
		if !slices.Contains(a.Pkgs, w) {
			t.Errorf("%s no longer defends %s (Pkgs %v)", a.Name, w, a.Pkgs)
		}
	}
}

// TestHotPathsClean: the simulator and register-stack packages carry
// no naked panics.
func TestHotPathsClean(t *testing.T) {
	requirePkgs(t, NoNakedPanic, "internal/sim", "internal/cars")
	cleanOnTree(t, NoNakedPanic)
}

// TestUncheckedSimErrorRepo keeps the non-test callers in the packages
// that actually launch programs honest.
func TestUncheckedSimErrorRepo(t *testing.T) {
	requirePkgs(t, UncheckedSimError, "internal/san", "internal/workloads", "cmd/carsvet", "cmd/carsim")
	cleanOnTree(t, UncheckedSimError)
}

// TestGuardsCleanOnTree runs every other analyzer over the real
// module, so the three tree tests together cover all of Analyzers.
func TestGuardsCleanOnTree(t *testing.T) {
	var rest []*Analyzer
	for _, a := range Analyzers {
		if a != NoNakedPanic && a != UncheckedSimError {
			rest = append(rest, a)
		}
	}
	if len(rest) != len(Analyzers)-2 {
		t.Fatalf("Analyzers lost nonakedpanic or uncheckedsimerror: %d left of %d", len(rest), len(Analyzers))
	}
	cleanOnTree(t, rest...)
}

// TestFactsServeRoots pins the root set the reachability rules hang
// off: the HTTP handlers and the daemon entry point must be roots.
func TestFactsServeRoots(t *testing.T) {
	mod, err := loadTree()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	roots := BuildFacts(mod).ServeRoots()
	rootSet := map[string]bool{}
	for _, r := range roots {
		rootSet[r] = true
	}
	for _, want := range []string{
		"(*carsgo/internal/serve.Server).handleSimulate",
		"(*carsgo/internal/serve.Server).handleJobSubmit",
	} {
		if !rootSet[want] {
			t.Errorf("serve root missing: %s", want)
		}
	}
	hasMain := false
	for r := range rootSet {
		if strings.Contains(r, "cmd/carsd") {
			hasMain = true
		}
	}
	if !hasMain {
		t.Errorf("no cmd/carsd function in serve roots")
	}
}

// fixtureCase is one case of an analyzer's fixture: the declarations
// it spans (functions, or methods as "Type.Method") and how many
// findings the analyzer must report inside them.
type fixtureCase struct {
	name  string
	decls []string
	want  int
}

// declSpan is one fixture declaration's file and line range.
type declSpan struct {
	file       string
	start, end int
}

// runCases checks each case against the analyzer's fixture: exactly
// want findings inside the case's declarations, and exactly want
// `// want` markers planted there (TestSelfTest matches the two
// line by line). Declarations in _test.go files count, so a case can
// pin that test files are never analyzed.
func runCases(t *testing.T, a *Analyzer, cases []fixtureCase) {
	t.Helper()
	dir, diags, err := runFixture("../..", a)
	if err != nil {
		t.Fatal(err)
	}
	wants, err := parseWants(dir)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := fixtureDecls(dir)
	if err != nil {
		t.Fatal(err)
	}
	in := func(s declSpan, file string, line int) bool {
		return filepath.Base(file) == s.file && line >= s.start && line <= s.end
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			planted := 0
			for _, name := range tc.decls {
				s, ok := spans[name]
				if !ok {
					t.Fatalf("fixture %s declares no %s", dir, name)
				}
				for _, d := range diags {
					if in(s, d.Pos.Filename, d.Pos.Line) {
						got = append(got, d.String())
					}
				}
				for _, w := range wants {
					if in(s, w.file, w.line) {
						planted++
					}
				}
			}
			if len(got) != tc.want || planted != tc.want {
				t.Errorf("%d findings and %d plants in %v, want %d of each:\n%s",
					len(got), planted, tc.decls, tc.want, strings.Join(got, "\n"))
			}
		})
	}
}

// fixtureDecls indexes the function declarations of every Go file in
// dir, test files included.
func fixtureDecls(dir string) (map[string]declSpan, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	spans := map[string]declSpan{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				name = typ.(*ast.Ident).Name + "." + name
			}
			spans[name] = declSpan{e.Name(), fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line}
		}
	}
	return spans, nil
}
