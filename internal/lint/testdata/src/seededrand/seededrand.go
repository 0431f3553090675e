// Package randfix plants draws from math/rand's global source and
// time-derived seeds; the clean twins seed explicitly, use a seeded
// generator's methods, or only shadow the package name.
package randfix

import (
	"math/rand"
	"time"
)

func globalIntn() int {
	return rand.Intn(10) // want "rand.Intn draws from the package-global source"
}

func globalShuffleAndFloat64(xs []int) float64 {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "rand.Shuffle draws from the package-global source"
	return rand.Float64()                                                 // want "rand.Float64 draws from the package-global source"
}

func seededLiteral() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(10)
}

func seededParam(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

func timeSource() int {
	r := rand.New(rand.NewSource(time.Now().UnixNano())) // want "rand.NewSource from time.Now is nondeterministic"
	return r.Intn(10)
}

func timeSeed() {
	rand.Seed(time.Now().UnixNano()) // want "rand.Seed from time.Now is nondeterministic"
}

func constantSeed() {
	rand.Seed(42)
}

func opaqueSource(src rand.Source) int {
	r := rand.New(src) // want "rand.New needs a visible seed"
	return r.Intn(10)
}

func seededMethods(r *rand.Rand) int {
	return r.Intn(10)
}

type fake struct{}

func (fake) Intn(int) int { return 0 }

// A local named rand shadows the import.
func shadowedRand() int {
	rand := fake{}
	return rand.Intn(10)
}
