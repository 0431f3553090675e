// Package simerrfix plants discarded errors from (*sim.GPU).Run,
// abi.Link and abi.LinkStrict; the clean twins consume the error or
// call something that merely shares a watched name.
package simerrfix

import (
	"carsgo/internal/abi"
	"carsgo/internal/isa"
	"carsgo/internal/kir"
	"carsgo/internal/sim"
	"carsgo/internal/stats"
)

func bareRun(g *sim.GPU, l isa.Launch) {
	g.Run(l) // want "Run error discarded (result unused)"
}

func blankRunError(g *sim.GPU, l isa.Launch) {
	res, _ := g.Run(l) // want "Run error assigned to the blank identifier"
	_ = res
}

func bareLink(mode abi.Mode, m *kir.Module) {
	abi.Link(mode, m) // want "Link error discarded (result unused)"
}

func blankLinkStrictError(mode abi.Mode, m *kir.Module) {
	prog, _ := abi.LinkStrict(mode, m) // want "LinkStrict error assigned to the blank identifier"
	_ = prog
}

func goRun(g *sim.GPU, l isa.Launch) {
	go g.Run(l) // want "Run error discarded (go statement)"
}

func deferRun(g *sim.GPU, l isa.Launch) {
	defer g.Run(l) // want "Run error discarded (defer statement)"
}

func consumedError(g *sim.GPU, l isa.Launch) error {
	_, err := g.Run(l)
	return err
}

func returnedError(g *sim.GPU, l isa.Launch) (*stats.Kernel, error) {
	return g.Run(l)
}

func blankNonErrorPosition(mode abi.Mode, m *kir.Module) error {
	_, err := abi.LinkStrict(mode, m)
	return err
}

type renderer struct{}

func (renderer) Render(isa.Launch) error { return nil }

func unrelatedMethod(r renderer, l isa.Launch) {
	r.Render(l)
}

// Run is a plain function that only shares the method's name.
func Run(isa.Launch) error { return nil }

func plainRun(l isa.Launch) {
	Run(l)
}

func twoDiscards(g *sim.GPU, a, b isa.Launch) {
	g.Run(a) // want "Run error discarded (result unused)"
	g.Run(b) // want "Run error discarded (result unused)"
}

// job's Run is an unrelated type's method of the same name.
type job struct{}

func (job) Run() error { return nil }

func otherTypesRun(j job) {
	j.Run()
}
