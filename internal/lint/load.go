// Module loading for the analyzers. Every check is type-aware: it
// needs resolved types to tell a context.Context parameter from any
// other ctx-named value, the panic builtin from a local named panic,
// or a cars.Backend constant from its namesake, and the concurrency
// checks need a cross-package call graph to decide reachability from
// the serving roots. Both come from the standard library alone —
// go/parser + go/types with the source importer — so the module stays
// dependency-free.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Path is the import path ("carsgo/internal/serve"). Fixture
	// packages loaded from testdata get a synthetic path.
	Path string
	// Dir is the package directory on disk.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is the analysis unit the analyzers run over: every package
// of the repo (or one fixture package), sharing one FileSet and one
// importer.
type Module struct {
	Root string // module root directory
	Path string // module path from go.mod ("carsgo")
	Fset *token.FileSet
	Pkgs []*Package

	imp  types.ImporterFrom
	deps map[string]*types.Package // importer copies by path, built on first lookup
}

// FindModuleRoot walks up from dir to the directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module path from go.mod (first "module" line).
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// newModule builds an empty module with a shared importer. The source
// importer type-checks imports (stdlib and in-module alike) from
// source and caches them, so every package added to the module
// resolves against one consistent set of dependency exports.
func newModule(root string) (*Module, error) {
	path, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &Module{Root: root, Path: path, Fset: fset}
	m.imp = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return m, nil
}

// LoadModule parses and type-checks every package of the module at
// root (skipping testdata, vendor-like, and dot directories). Soft
// type errors do not abort the load: the guard analyzers run on the
// best-effort type information, same as go vet.
func LoadModule(root string) (*Module, error) {
	root, err := FindModuleRoot(root)
	if err != nil {
		return nil, err
	}
	m, err := newModule(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "fuzz-corpus" || name == "scripts") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		path := m.Path
		if rel != "." {
			path = m.Path + "/" + filepath.ToSlash(rel)
		}
		if err := m.loadDir(dir, path); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// LoadFixture loads a single fixture directory (one package) under a
// synthetic import path, for the planted-violation selftests. The
// fixture may import stdlib and in-module packages.
func LoadFixture(root, dir, syntheticPath string) (*Module, error) {
	root, err := FindModuleRoot(root)
	if err != nil {
		return nil, err
	}
	m, err := newModule(root)
	if err != nil {
		return nil, err
	}
	if err := m.loadDir(dir, syntheticPath); err != nil {
		return nil, err
	}
	if len(m.Pkgs) == 0 {
		return nil, fmt.Errorf("lint: fixture %s has no Go files", dir)
	}
	return m, nil
}

// loadDir parses dir's non-test Go files (respecting build tags) and
// type-checks them as one package under the given import path. A dir
// with no Go files is skipped silently.
func (m *Module) loadDir(dir, path string) error {
	bctx := build.Default
	bpkg, err := bctx.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		return fmt.Errorf("lint: %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bpkg.GoFiles {
		f, perr := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if perr != nil {
			return perr
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: m.imp,
		Error:    func(error) {}, // best-effort, like go vet
	}
	tpkg, _ := conf.Check(path, m.Fset, files, info)
	if tpkg == nil {
		return fmt.Errorf("lint: type-checking %s produced no package", path)
	}
	m.Pkgs = append(m.Pkgs, &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info})
	return nil
}

// lookup resolves the package-level object name of the in-module
// package at rel ("internal/sim") the way pkg's type information refers
// to it: pkg's own declaration when pkg is that package, otherwise the
// shared importer's copy that every loaded package was checked
// against. It is nil when nothing loaded imports the package, in which
// case no code under analysis can use the object either.
func (m *Module) lookup(pkg *Package, rel, name string) types.Object {
	path := m.Path + "/" + rel
	if pkg.Path == path {
		return pkg.Types.Scope().Lookup(name)
	}
	if m.deps == nil {
		m.deps = map[string]*types.Package{}
		var walk func(*types.Package)
		walk = func(p *types.Package) {
			for _, imp := range p.Imports() {
				if m.deps[imp.Path()] == nil {
					m.deps[imp.Path()] = imp
					walk(imp)
				}
			}
		}
		for _, p := range m.Pkgs {
			walk(p.Types)
		}
	}
	if dep := m.deps[path]; dep != nil {
		return dep.Scope().Lookup(name)
	}
	return nil
}
