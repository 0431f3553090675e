package randfix

import mrand "math/rand"

func aliasedIntn() int {
	return mrand.Intn(10) // want "rand.Intn draws from the package-global source"
}
