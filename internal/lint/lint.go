// Package lint hosts the repo's custom static checks for its own Go
// sources, shaped after golang.org/x/tools/go/analysis (Analyzer /
// Pass / Diagnostic) but built purely on the standard library's
// go/parser and go/types so the module stays dependency-free.
//
// Every analyzer runs once over a type-checked Module with shared
// call-graph Facts, and resolves what it checks through types.Info
// rather than by name. Analyzers lists the ten checks in reporting
// order: five that guard the simulator's invariants (nonakedpanic,
// uncheckedsimerror, unusedmonitorhook, seededrand,
// backendexhaustive), each over the packages named in its Pkgs, and
// five whole-module concurrency and resource-safety checks over the
// serving layer (ctxflow, goleak, lockheld, atomicmix, metriclabels;
// DESIGN.md §13). Each ships with a planted-violation fixture under
// internal/lint/testdata/src/<name> that SelfTest holds it to. Test
// files are never loaded, so they are exempt from every check.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for editor navigation.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
}

// Analyzer describes one static check, mirroring analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	// Pkgs lists the module-relative package directories whose
	// findings Run reports ("internal/sim"); nil means the whole
	// module. A selftest fixture is always in scope.
	Pkgs []string
	Run  func(*Pass) error
}

// Pass carries one analysis run: the loaded module, the shared facts,
// and the diagnostic sink.
type Pass struct {
	Mod    *Module
	Facts  *Facts
	Report func(Diagnostic)
}

// Analyzers lists every check in reporting order.
var Analyzers = []*Analyzer{
	NoNakedPanic, UncheckedSimError, UnusedMonitorHook, SeededRand, BackendExhaustive,
	CtxFlow, GoLeak, LockHeld, AtomicMix, MetricLabels,
}

// Run applies a to a loaded module with prebuilt facts, returning its
// position-sorted findings in the packages a defends.
func Run(a *Analyzer, m *Module, facts *Facts) ([]Diagnostic, error) {
	diags, err := run(a, m, facts)
	if err != nil || a.Pkgs == nil {
		return diags, err
	}
	var out []Diagnostic
	for _, d := range diags {
		rel, err := filepath.Rel(m.Root, filepath.Dir(d.Pos.Filename))
		if err == nil && slices.Contains(a.Pkgs, filepath.ToSlash(rel)) {
			out = append(out, d)
		}
	}
	return out, nil
}

// run applies a to every package of m, unscoped.
func run(a *Analyzer, m *Module, facts *Facts) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{Mod: m, Facts: facts,
		Report: func(d Diagnostic) { diags = append(diags, d) }}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return diags, nil
}

// report is the analyzers' shared diagnostic constructor.
func (p *Pass) report(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: p.Mod.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// FilterDirs filters a diagnostic set to files under any of the given
// directories (carslint's positional-argument mode); an empty dir list
// keeps everything.
func FilterDirs(diags []Diagnostic, dirs []string) []Diagnostic {
	if len(dirs) == 0 {
		return diags
	}
	var out []Diagnostic
	for _, d := range diags {
		for _, dir := range dirs {
			abs, err := filepath.Abs(dir)
			if err != nil {
				continue
			}
			if fabs, err := filepath.Abs(d.Pos.Filename); err == nil {
				if rel, err := filepath.Rel(abs, fabs); err == nil && !strings.HasPrefix(rel, "..") {
					out = append(out, d)
					break
				}
			}
		}
	}
	return out
}

// ---- shared syntax helpers -------------------------------------------------

// selectHasDefault reports a select with a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// selectCancellable reports a select with a cancellation-shaped case:
// a receive whose channel expression contains a call to a method
// named Done (ctx.Done(), task.Done()) or an identifier spelled like
// a done channel (done, stop, quit, closed, sigc — a signal channel
// is a process-lifetime cancellation source).
func selectCancellable(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		var recv ast.Expr
		switch s := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := s.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				recv = u.X
			}
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					recv = u.X
				}
			}
		}
		if recv != nil && cancellationShaped(recv) {
			return true
		}
	}
	return false
}

// cancellationShaped matches channel expressions that exist to signal
// cancellation or completion.
func cancellationShaped(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if n.Sel.Name == "Done" {
				found = true
			}
		case *ast.Ident:
			switch strings.ToLower(n.Name) {
			case "done", "stop", "quit", "closed", "sigc", "errc":
				found = true
			}
		}
		return !found
	})
	return found
}

// calleePkgPath returns the callee's defining package path ("" when
// unresolvable or builtin).
func calleePkgPath(info *types.Info, call *ast.CallExpr) string {
	callee := CalleeOf(info, call)
	if callee == nil || callee.Pkg() == nil {
		return ""
	}
	return callee.Pkg().Path()
}

// isChanType reports whether t is (or points at) a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isWaitGroupMethod reports a method of *sync.WaitGroup.
func isWaitGroupMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// usedObject resolves an identifier or qualified identifier (x, pkg.x)
// to the object it uses, or nil.
func usedObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}
