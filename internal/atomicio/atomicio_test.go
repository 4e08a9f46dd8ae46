package atomicio

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privateclean/internal/faults"
)

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

func TestWriteFileBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFileBytes(path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if names := listDir(t, dir); len(names) != 1 {
		t.Fatalf("temp file left behind: %v", names)
	}
}

func TestWriteFileOverwrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFileBytes(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileBytes(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "new" {
		t.Fatalf("got %q", got)
	}
}

func TestWriteFailureLeavesOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFileBytes(path, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("mid-write crash")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "half of the new cont")
		return boom
	})
	if !errors.Is(err, boom) || !errors.Is(err, faults.ErrPartialWrite) {
		t.Fatalf("want wrapped ErrPartialWrite carrying cause, got %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "precious" {
		t.Fatalf("old content destroyed: %q", got)
	}
	if names := listDir(t, dir); len(names) != 1 {
		t.Fatalf("temp file left behind after failure: %v", names)
	}
}

func TestWriteFailureLeavesNoNewFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.txt")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return errors.New("crash")
	})
	if err == nil {
		t.Fatal("want error")
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatal("failed write must not create the destination")
	}
	if names := listDir(t, dir); len(names) != 0 {
		t.Fatalf("debris after failed write: %v", names)
	}
}

func TestShortWriterFailure(t *testing.T) {
	// A writer-level short write (e.g. ENOSPC) classifies as partial write.
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	err := WriteFile(path, func(w io.Writer) error {
		fw := &faults.FailingWriter{W: w, FailAt: 3, Short: true}
		_, err := fw.Write([]byte(strings.Repeat("x", 100)))
		return err
	})
	if !errors.Is(err, faults.ErrPartialWrite) || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("want ErrPartialWrite + injected cause, got %v", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatal("short write must not surface a destination file")
	}
}

func TestWriteJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.json")
	if err := WriteJSON(path, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if !strings.HasSuffix(string(got), "\n") || !strings.Contains(string(got), `"a": 1`) {
		t.Fatalf("json form wrong: %q", got)
	}
}

func TestWriteJSONUnmarshalable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.json")
	if err := WriteJSON(path, func() {}); err == nil {
		t.Fatal("want marshal error")
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatal("marshal failure must not create the file")
	}
}

// TestMarshalIndented: a pooled rendering is json.MarshalIndent's bytes and
// a newline, also when its buffer last held a larger document, and a value
// json.MarshalIndent refuses fails with the same error.
func TestMarshalIndented(t *testing.T) {
	big := map[string][]float64{}
	for i := 0; i < 200; i++ {
		big[strings.Repeat("k", i%7+1)+string(rune('a'+i%26))] = []float64{float64(i), 1e21, 1e-7, -0.5}
	}
	for _, v := range []any{
		big,
		map[string]any{"html": "<a & b>", "nil": nil, "nested": []any{1, "x", map[string]int{}}, "u2028": "\u2028"},
		struct {
			A int    `json:"a"`
			B string `json:"b,omitempty"`
		}{A: 3},
		[]string{},
		nil,
	} {
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		j, err := MarshalIndented(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(j.Bytes()); got != string(want)+"\n" {
			t.Errorf("MarshalIndented(%v):\n got %q\nwant %q", v, got, string(want)+"\n")
		}
		j.Release()
	}
	_, want := json.MarshalIndent(math.NaN(), "", "  ")
	if _, err := MarshalIndented(math.NaN()); err == nil || err.Error() != want.Error() {
		t.Errorf("MarshalIndented(NaN) error %v, want %v", err, want)
	}
}

func TestMissingDirectory(t *testing.T) {
	err := WriteFileBytes(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x"))
	if err == nil {
		t.Fatal("want error for missing directory")
	}
}
