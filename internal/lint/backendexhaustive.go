package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// BackendExhaustive flags switch statements over the spill-backend
// enum (cars.Backend) that neither cover every backend nor carry a
// default clause, in the packages that branch on it. The backend set
// is the spine of the spill-policy lattice: the simulator's admission
// paths, vet's occupancy rows, and the differential's study stages all
// branch on it, and a switch that silently falls through for a
// newly-added backend is exactly the bug the enum's growth will
// produce. The backend set is every constant of type cars.Backend
// declared in the cars package scope, and a switch counts as a backend
// switch when any of its case expressions resolves to one of them. A
// switch that handles a strict subset on purpose must say so with a
// default clause, which also documents the fallback behaviour.
var BackendExhaustive = &Analyzer{
	Name: "backendexhaustive",
	Doc:  "flag non-exhaustive switches over the cars.Backend enum that lack a default clause",
	Pkgs: []string{
		"internal/cars", "internal/sim", "internal/vet",
		"internal/san", "internal/config", "internal/experiments",
	},
	Run: runBackendExhaustive,
}

func runBackendExhaustive(p *Pass) error {
	for _, pkg := range p.Mod.Pkgs {
		backends := backendObjects(p.Mod, pkg)
		if len(backends) == 0 {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok {
					return true
				}
				seen := map[types.Object]bool{}
				hasDefault := false
				for _, stmt := range sw.Body.List {
					cc := stmt.(*ast.CaseClause)
					if cc.List == nil {
						hasDefault = true
					}
					for _, e := range cc.List {
						if obj := usedObject(pkg.Info, e); obj != nil && backends[obj] {
							seen[obj] = true
						}
					}
				}
				if len(seen) == 0 || hasDefault || len(seen) == len(backends) {
					return true
				}
				var missing []string
				for obj := range backends {
					if !seen[obj] {
						missing = append(missing, obj.Name())
					}
				}
				slices.Sort(missing)
				p.report(sw.Pos(), "switch over cars.Backend misses %s and has no default: "+
					"handle every backend or document the fallback with a default clause", strings.Join(missing, ", "))
				return true
			})
		}
	}
	return nil
}

// backendObjects returns the constants of type cars.Backend declared in
// the cars package scope, as pkg's type information refers to them.
func backendObjects(m *Module, pkg *Package) map[types.Object]bool {
	backend := m.lookup(pkg, "internal/cars", "Backend")
	if backend == nil {
		return nil
	}
	scope := backend.Pkg().Scope()
	consts := map[types.Object]bool{}
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), backend.Type()) {
			consts[c] = true
		}
	}
	return consts
}
