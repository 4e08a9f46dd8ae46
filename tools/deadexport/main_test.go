package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The fixture under testdata has one function per case: see lib/lib.go.
func TestFixtureFlagsOnlyTestReachedFunctions(t *testing.T) {
	got, err := check("testdata", filepath.Join("testdata", "allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:18: lib.TestOnly has no non-test reference",
		"lib/lib.go:20: lib.unexportedTestOnly has no non-test reference",
		"lib/lib.go:32: lib.Recursive has no non-test reference",
		"lib/lib.go:58: lib.Square.Perimeter has no non-test reference",
		// Square satisfies the tree's Namer, but only a test calls Name
		// through it; Area stays, since non-test code calls Shape.Area.
		"lib/lib.go:60: lib.Square.Name has no non-test reference",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestAllowlistLines(t *testing.T) {
	for _, c := range []struct {
		name, line, want string
	}{
		{"no reason", "lib.Allowed", "allowlist.txt:1: lib.Allowed has no reason"},
		{"blank reason", "lib.Allowed   \t", "allowlist.txt:1: lib.Allowed has no reason"},
		{"now used", "lib.Allowed kept\nlib.UsedByCmd kept", "allowlist.txt:2: lib.UsedByCmd has a non-test reference or no longer exists; delete the line"},
		{"used by a nested module", "lib.Allowed kept\nlib.NestedOnly kept", "allowlist.txt:2: lib.NestedOnly has a non-test reference or no longer exists; delete the line"},
		{"gone", "lib.Allowed kept\nlib.Gone kept", "allowlist.txt:2: lib.Gone has a non-test reference or no longer exists; delete the line"},
		{"repeated", "lib.Allowed kept\nlib.Allowed again", "allowlist.txt:2: lib.Allowed repeats line 1"},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "allowlist.txt")
			if err := os.WriteFile(path, []byte(c.line+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := check("testdata", path)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, p := range got {
				found = found || strings.HasSuffix(p, c.want)
			}
			if !found {
				t.Fatalf("problems:\n%s\nwant one ending in %q", strings.Join(got, "\n"), c.want)
			}
		})
	}
}
