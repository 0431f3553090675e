// Package nakedfix plants naked panics; the clean twins pin the two
// sanctioned shapes (the execFault throw site and re-panicking a
// recovered value) and a local function that only shares panic's name.
package nakedfix

func nakedPanic() {
	panic("boom") // want "naked panic on a hot path"
}

// execFault is the sanctioned throw site.
func execFault() { panic(42) }

type sm struct{}

// A closure inside a method named execFault is still the throw site.
func (*sm) execFault() {
	func() { panic(1) }()
}

func repanicRecovered() {
	defer func() {
		if r := recover(); r != nil {
			panic(r)
		}
	}()
}

func repanicInNestedLiteral() {
	r := recover()
	func() { panic(r) }()
}

func panicNonRecovered() {
	r := 3
	panic(r) // want "naked panic on a hot path"
}

func recoverElsewhere() any { return recover() }

// A value recovered by another function does not license this panic.
func panicParam(r any) {
	panic(r) // want "naked panic on a hot path"
}

func panicOne() {
	panic(1) // want "naked panic on a hot path"
}

func panicTwo() {
	panic(2) // want "naked panic on a hot path"
}

// A local function named panic is not the builtin.
func shadowedPanic() {
	panic := func(any) {}
	panic("not the builtin")
}
