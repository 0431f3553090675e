package lint

import (
	"go/ast"
	"go/types"
)

// UnusedMonitorHook flags sim.Monitor hook methods with empty bodies
// in internal/san and internal/sim. The monitor interface is the
// simulator's only event stream to the shadow sanitizer, and every
// hook exists because some invariant is checked against it; an
// implementation that silently swallows an event is a checker gap that
// no test distinguishes from a real consumer. A method is a finding
// when its name is in the sim.Monitor method set, it has a receiver,
// and its body contains no statements and no comment. An intentional
// no-op must say so with a comment in the body, which both silences
// the analyzer and documents the decision.
var UnusedMonitorHook = &Analyzer{
	Name: "unusedmonitorhook",
	Doc:  "flag empty-body sim.Monitor hook methods: consume the event or document the no-op",
	Pkgs: []string{"internal/san", "internal/sim"},
	Run:  runUnusedMonitorHook,
}

func runUnusedMonitorHook(p *Pass) error {
	for _, pkg := range p.Mod.Pkgs {
		hooks := hookNames(p.Mod, pkg)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil {
					continue
				}
				if !hooks[fd.Name.Name] || len(fd.Body.List) > 0 || commentInside(file, fd.Body) {
					continue
				}
				p.report(fd.Pos(), "empty %s monitor hook swallows its event: "+
					"consume it or document the no-op with a comment in the body", fd.Name.Name)
			}
		}
	}
	return nil
}

// hookNames returns the names in the sim.Monitor method set.
func hookNames(m *Module, pkg *Package) map[string]bool {
	obj := m.lookup(pkg, "internal/sim", "Monitor")
	if obj == nil {
		return nil
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	hooks := map[string]bool{}
	for i := 0; i < iface.NumMethods(); i++ {
		hooks[iface.Method(i).Name()] = true
	}
	return hooks
}

// commentInside reports whether any comment group lies between the
// block's braces.
func commentInside(file *ast.File, body *ast.BlockStmt) bool {
	for _, cg := range file.Comments {
		if cg.Pos() > body.Lbrace && cg.End() < body.Rbrace {
			return true
		}
	}
	return false
}
