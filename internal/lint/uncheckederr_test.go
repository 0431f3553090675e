package lint

import "testing"

func TestUncheckedSimError(t *testing.T) {
	runCases(t, UncheckedSimError, []fixtureCase{
		{"bare Run statement flagged", []string{"bareRun"}, 1},
		{"blank error flagged", []string{"blankRunError"}, 1},
		{"bare Link statement flagged", []string{"bareLink"}, 1},
		{"blank LinkStrict error flagged", []string{"blankLinkStrictError"}, 1},
		{"go statement flagged", []string{"goRun"}, 1},
		{"defer statement flagged", []string{"deferRun"}, 1},
		{"consumed error allowed", []string{"consumedError"}, 0},
		{"error returned directly allowed", []string{"returnedError"}, 0},
		{"blank non-error position allowed", []string{"blankNonErrorPosition"}, 0},
		{"unrelated method untouched", []string{"unrelatedMethod"}, 0},
		{"plain function named Run untouched", []string{"plainRun"}, 0},
		{"two discards two findings", []string{"twoDiscards"}, 2},
		{"other type's Run untouched", []string{"otherTypesRun"}, 0},
	})
}
