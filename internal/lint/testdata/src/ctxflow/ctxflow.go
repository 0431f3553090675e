// Package ctxfix plants ctxflow violations: context dropped, forked,
// or never threaded on request paths. Each `// want` line is a
// violation the analyzer must report; everything unmarked is a clean
// twin it must accept.
package ctxfix

import (
	"context"
	"sync"
)

// run stands in for the engine entry point.
func run(ctx context.Context) (any, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

type group struct{}

// handleLookup is a request root. Deriving the leader context from
// Background instead of WithoutCancel(ctx) drops the caller's values —
// the singleflight leader regression this fixture pins.
func (g *group) handleLookup(ctx context.Context, key string) (any, error) {
	fctx, cancel := context.WithCancel(context.Background()) // want "ctxflow: context.Background on a request path with a context in scope"
	defer cancel()
	_ = key
	return run(fctx)
}

// Simulate and SimulateContext mirror the sim.Run / sim.RunContext
// sibling pair.
func Simulate() error { return nil }

// SimulateContext is the cancellable variant.
func SimulateContext(ctx context.Context) error { return ctx.Err() }

func handleSimulate(ctx context.Context) error {
	_ = ctx
	return Simulate() // want "ctxflow: call lintfixture/ctxflow.SimulateContext instead"
}

// handleCollect blocks on a bare receive with no context to bound it.
func handleCollect(results chan int) int {
	return <-results // want "ctxflow: blocking channel receive in handleCollect"
}

// handleJoin reaches a context-free blocking helper.
func handleJoin() {
	waitAll()
}

func waitAll() {
	var wg sync.WaitGroup
	wg.Wait() // want "ctxflow: sync.WaitGroup.Wait in waitAll, reachable from a request root"
}

// ---- clean twins -----------------------------------------------------------

// handleClean detaches lifetime the sanctioned way: WithoutCancel
// keeps values, and the cancellable sibling is used.
func handleClean(ctx context.Context) error {
	leader := context.WithoutCancel(ctx)
	return SimulateContext(leader)
}

// handleSelect blocks, but a context bounds it.
func handleSelect(ctx context.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}

// newBase is constructor wiring, unreachable from any request root:
// Background is the right call here.
func newBase() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}
