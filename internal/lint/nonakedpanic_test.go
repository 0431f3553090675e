package lint

import "testing"

func TestNoNakedPanic(t *testing.T) {
	runCases(t, NoNakedPanic, []fixtureCase{
		{"naked panic flagged", []string{"nakedPanic"}, 1},
		{"execFault throw site allowed", []string{"execFault"}, 0},
		{"closure inside execFault allowed", []string{"sm.execFault"}, 0},
		{"re-panic of recovered value allowed", []string{"repanicRecovered"}, 0},
		{"re-panic allowed across nested literal", []string{"repanicInNestedLiteral"}, 0},
		{"panic of non-recovered ident flagged", []string{"panicNonRecovered"}, 1},
		{"recover in another function does not license", []string{"recoverElsewhere", "panicParam"}, 1},
		{"two naked panics two findings", []string{"panicOne", "panicTwo"}, 2},
		{"local func named panic clean", []string{"shadowedPanic"}, 0},
		{"test file panic exempt", []string{"panicInTest"}, 0},
	})
}
