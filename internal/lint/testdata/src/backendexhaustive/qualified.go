package backendfix

import "carsgo/internal/cars"

func qualifiedConstants(b cars.Backend) {
	switch b { // want "switch over cars.Backend misses BackendCARS, BackendSmemSpill"
	case cars.BackendRFCache:
	}
}

// A local constant named like a backend is not one.
func localNamesake(mode int) {
	const BackendCARS = 0
	switch mode {
	case BackendCARS:
	}
}
