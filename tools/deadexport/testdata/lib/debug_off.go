//go:build !pcdebug

package lib

func assertInvariant() {}
