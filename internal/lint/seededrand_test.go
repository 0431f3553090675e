package lint

import "testing"

func TestSeededRand(t *testing.T) {
	runCases(t, SeededRand, []fixtureCase{
		{"global Intn flagged", []string{"globalIntn"}, 1},
		{"global Shuffle and Float64 both flagged", []string{"globalShuffleAndFloat64"}, 2},
		{"explicitly seeded New(NewSource(literal)) allowed", []string{"seededLiteral"}, 0},
		{"seed from named parameter allowed", []string{"seededParam"}, 0},
		{"NewSource(time.Now) flagged", []string{"timeSource"}, 1},
		{"Seed(time.Now) flagged", []string{"timeSeed"}, 1},
		{"Seed from constant allowed", []string{"constantSeed"}, 0},
		{"New with opaque source flagged", []string{"opaqueSource"}, 1},
		{"aliased import still caught", []string{"aliasedIntn"}, 1},
		{"methods on a seeded generator allowed", []string{"seededMethods"}, 0},
		{"shadowing local named rand not confused", []string{"fake.Intn", "shadowedRand"}, 0},
		{"no math/rand import ignored", []string{"noRandImport"}, 0},
		{"math/rand/v2 global and New caught", []string{"globalIntNV2", "seededPCG"}, 2},
	})
}
