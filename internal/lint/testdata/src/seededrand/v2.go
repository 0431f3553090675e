package randfix

import randv2 "math/rand/v2"

func globalIntNV2() int {
	return randv2.IntN(10) // want "rand.IntN draws from the package-global source"
}

func seededPCG(seed uint64) int {
	return randv2.New(randv2.NewPCG(seed, 1)).IntN(10) // want "rand.New needs a visible seed"
}
