package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SeededRand defends the repo's reproducibility contract in the
// packages the fuzzer and the load generator depend on: every random
// stream feeding spec generation, fuzzing, load or simulation must
// come from an explicitly seeded source, so a seed printed in a
// failure report replays the exact run. Calls are resolved to the
// functions of math/rand and math/rand/v2, however the package is
// imported or shadowed. Three shapes are findings:
//
//   - calls through the package-global source (rand.Intn, rand.Int63,
//     rand.Perm, rand.Shuffle, ... — every package-level function but
//     the New* constructors and Seed): the seed is invisible at the
//     call site and, since Go 1.20, random per process;
//   - rand.New with anything but rand.NewSource(seed) — a custom
//     Source hides where its entropy came from;
//   - a seed expression that calls time.Now — explicitly wired-in
//     wall-clock nondeterminism (rand.Seed(time.Now().UnixNano()),
//     rand.NewSource(time.Now().UnixNano())).
//
// A literal or named seed argument is fine: determinism, not secrecy,
// is the property under defense. Packages that avoid math/rand
// entirely — internal/spec's splitmix64 — never trip it.
var SeededRand = &Analyzer{
	Name: "seededrand",
	Doc:  "require explicitly seeded random sources; forbid math/rand's global source and time-derived seeds",
	Pkgs: []string{
		"internal/spec", "internal/workloads", "internal/sim", "internal/experiments",
		"internal/load", "cmd/carsfuzz", "cmd/carsbench",
	},
	Run: runSeededRand,
}

func runSeededRand(p *Pass) error {
	for _, pkg := range p.Mod.Pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := randFunc(info, call)
				if fn == nil {
					return true
				}
				switch name := fn.Name(); {
				case name == "Seed":
					if len(call.Args) == 1 && callsTimeNow(info, call.Args[0]) {
						p.report(call.Pos(), "rand.Seed from time.Now is nondeterministic; derive the seed from configuration so runs replay")
					}
				case name == "New":
					if len(call.Args) != 1 {
						return true
					}
					src, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
					if !ok || randFunc(info, src) == nil || randFunc(info, src).Name() != "NewSource" {
						p.report(call.Pos(), "rand.New needs a visible seed: pass rand.NewSource(seed) directly, not a pre-built Source")
					} else if len(src.Args) == 1 && callsTimeNow(info, src.Args[0]) {
						p.report(call.Pos(), "rand.NewSource from time.Now is nondeterministic; derive the seed from configuration so runs replay")
					}
				case !strings.HasPrefix(name, "New"):
					p.report(call.Pos(), "rand.%s draws from the package-global source; build an explicitly seeded rand.New(rand.NewSource(seed)) and thread it through", name)
				}
				return true
			})
		}
	}
	return nil
}

// randFunc resolves a call to a package-level function of math/rand or
// math/rand/v2, or nil (methods on a *rand.Rand are seeded already).
func randFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := CalleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	if path := fn.Pkg().Path(); path != "math/rand" && path != "math/rand/v2" {
		return nil
	}
	return fn
}

// callsTimeNow reports whether the expression refers to time.Now (the
// canonical nondeterministic seed).
func callsTimeNow(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "time" && f.Name() == "Now" {
				found = true
			}
		}
		return !found
	})
	return found
}
