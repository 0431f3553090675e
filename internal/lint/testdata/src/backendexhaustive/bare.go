// Package backendfix plants non-exhaustive switches over cars.Backend;
// the clean twins cover every backend, carry a default, switch over
// something else, or only use a constant that shares a backend's name.
// This file dot-imports cars so the constants appear unqualified.
package backendfix

import . "carsgo/internal/cars"

func missingCase(b Backend) {
	switch b { // want "switch over cars.Backend misses BackendRFCache and has no default"
	case BackendCARS:
	case BackendSmemSpill:
	}
}

func allCases(b Backend) {
	switch b {
	case BackendCARS:
	case BackendSmemSpill:
	case BackendRFCache:
	}
}

func subsetWithDefault(b Backend) {
	switch b {
	case BackendCARS:
	default:
	}
}

func multiConstantCase(b Backend) {
	switch b {
	case BackendCARS, BackendSmemSpill, BackendRFCache:
	}
}

func unrelatedSwitch(b int) {
	switch b {
	case 1:
	case 2:
	}
}

func nestedSwitch(a int, b Backend) {
	switch a {
	case 1:
		switch b { // want "switch over cars.Backend misses BackendCARS, BackendRFCache"
		case BackendSmemSpill:
		}
	}
}
