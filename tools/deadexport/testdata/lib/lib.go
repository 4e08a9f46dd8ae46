// Package lib holds one function for each case the checker must get right.
package lib

import "fmt"

// UsedByCmd is called from a command.
func UsedByCmd() string {
	assertInvariant()
	return helper()
}

func helper() string { return fmt.Sprint(T{}, area(Square{S: 2})) }

// area calls Area through Shape, which keeps Square.Area.
func area(s Shape) float64 { return s.Area() }

// TestOnly is called only from lib_test.go, so it is flagged.
func TestOnly() int { return 1 }

func unexportedTestOnly() int { return 2 }

// NestedOnly is called only from the nested module.
func NestedOnly() int { return 3 }

// DebugOnly is called only from a file built with the pcdebug tag.
func DebugOnly() int { return 4 }

// Allowed has no reference but an allowlist line.
func Allowed() int { return 5 }

// Recursive refers only to itself, so it is flagged.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// T satisfies fmt.Stringer; nothing here calls String directly.
type T struct{}

func (T) String() string { return "t" }

// Shape is satisfied by Square.
type Shape interface{ Area() float64 }

// Namer is satisfied by Square too, but no non-test code calls Name
// through it, so Square.Name is flagged.
type Namer interface{ Name() string }

var _ Namer = Square{}

// Square's Area satisfies Shape; Perimeter satisfies no interface.
type Square struct{ S float64 }

func (q Square) Area() float64 { return q.S * q.S }

func (q *Square) Perimeter() float64 { return 4 * q.S }

func (Square) Name() string { return "square" }
