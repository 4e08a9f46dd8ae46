package lib

import "testing"

func TestLib(t *testing.T) {
	q := &Square{S: 1}
	if TestOnly()+unexportedTestOnly()+Recursive(2) != 3 || q.Perimeter() != 4 || Namer(q).Name() != "square" {
		t.Fatal("fixture")
	}
}
