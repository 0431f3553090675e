package lint

import (
	"go/ast"
	"go/types"
)

// UncheckedSimError flags calls to the simulator's fallible entry
// points — (*sim.GPU).Run and the abi.Link / abi.LinkStrict linkers —
// whose error result is discarded, in the packages that launch
// programs or link modules. A swallowed Run error silently drops a
// launch's faults (including sanitizer-adjacent traps), and a
// swallowed link error hands the simulator a nil program. Calls are
// matched by the resolved function object, so an unrelated Run method
// is never a finding. Two discard shapes are findings:
//
//   - the call as a bare statement (or under go/defer), dropping every
//     result, and
//   - an assignment whose final position — the error — is the blank
//     identifier, e.g. res, _ := g.Run(l).
var UncheckedSimError = &Analyzer{
	Name: "uncheckedsimerror",
	Doc:  "require callers of GPU.Run / abi.Link / abi.LinkStrict to consume the error result",
	Pkgs: []string{"internal/san", "internal/workloads", "internal/experiments", "cmd/carsvet", "cmd/carsim"},
	Run:  runUncheckedSimError,
}

func runUncheckedSimError(p *Pass) error {
	for _, pkg := range p.Mod.Pkgs {
		watched := simErrFuncs(p.Mod, pkg)
		if len(watched) == 0 {
			continue
		}
		check := func(e ast.Expr, how string) {
			call, ok := ast.Unparen(e).(*ast.CallExpr)
			if !ok {
				return
			}
			if f := CalleeOf(pkg.Info, call); f != nil && watched[f] {
				p.report(call.Pos(), "%s error %s: a dropped simulator/link error hides faults", f.Name(), how)
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					check(n.X, "discarded (result unused)")
				case *ast.GoStmt:
					check(n.Call, "discarded (go statement)")
				case *ast.DeferStmt:
					check(n.Call, "discarded (defer statement)")
				case *ast.AssignStmt:
					if len(n.Rhs) != 1 || len(n.Lhs) == 0 {
						return true
					}
					if id, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
						check(n.Rhs[0], "assigned to the blank identifier")
					}
				}
				return true
			})
		}
	}
	return nil
}

// simErrFuncs resolves (*sim.GPU).Run, abi.Link and abi.LinkStrict as
// pkg's type information refers to them.
func simErrFuncs(m *Module, pkg *Package) map[*types.Func]bool {
	watched := map[*types.Func]bool{}
	if gpu := m.lookup(pkg, "internal/sim", "GPU"); gpu != nil {
		if run, ok := lookupMethod(gpu, "Run"); ok {
			watched[run] = true
		}
	}
	for _, name := range []string{"Link", "LinkStrict"} {
		if f, ok := m.lookup(pkg, "internal/abi", name).(*types.Func); ok {
			watched[f] = true
		}
	}
	return watched
}

// lookupMethod finds a method of the named type, pointer receivers
// included.
func lookupMethod(typeName types.Object, name string) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(typeName.Type(), true, typeName.Pkg(), name)
	f, ok := obj.(*types.Func)
	return f, ok
}
