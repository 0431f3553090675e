package randfix

import "strings"

func noRandImport() string {
	return strings.ToUpper("x")
}
