//go:build pcdebug

package lib

func assertInvariant() {
	if DebugOnly() != 4 {
		panic("invariant")
	}
}
