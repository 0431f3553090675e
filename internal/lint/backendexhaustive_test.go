package lint

import "testing"

func TestBackendExhaustive(t *testing.T) {
	runCases(t, BackendExhaustive, []fixtureCase{
		{"missing case without default flagged", []string{"missingCase"}, 1},
		{"all cases clean", []string{"allCases"}, 0},
		{"subset with default clean", []string{"subsetWithDefault"}, 0},
		{"qualified constants flagged", []string{"qualifiedConstants"}, 1},
		{"multi-constant case counts each", []string{"multiConstantCase"}, 0},
		{"unrelated switch clean", []string{"unrelatedSwitch"}, 0},
		{"nested backend switch flagged", []string{"nestedSwitch"}, 1},
		{"local constant named like a backend clean", []string{"localNamesake"}, 0},
	})
}
