package faults

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFailingReaderFailsAtByte(t *testing.T) {
	src := strings.Repeat("x", 100)
	fr := &FailingReader{R: strings.NewReader(src), FailAt: 37}
	got, err := io.ReadAll(fr)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if len(got) != 37 {
		t.Fatalf("delivered %d bytes before failing, want 37", len(got))
	}
}

func TestFailingReaderPassesEOF(t *testing.T) {
	fr := &FailingReader{R: strings.NewReader("abc"), FailAt: 100}
	got, err := io.ReadAll(fr)
	if err != nil || string(got) != "abc" {
		t.Fatalf("trigger beyond data should read cleanly, got %q, %v", got, err)
	}
}

func TestFailingReaderCustomErr(t *testing.T) {
	custom := errors.New("disk on fire")
	fr := &FailingReader{R: strings.NewReader("abc"), FailAt: 1, Err: custom}
	_, err := io.ReadAll(fr)
	if !errors.Is(err, custom) {
		t.Fatalf("want custom error, got %v", err)
	}
}

func TestTruncatingReader(t *testing.T) {
	tr := &TruncatingReader{R: strings.NewReader("hello world"), Limit: 5}
	got, err := io.ReadAll(tr)
	if err != nil {
		t.Fatalf("truncation must look like clean EOF, got %v", err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q, want %q", got, "hello")
	}
}

// TestReadersSeek: after a rewind a TruncatingReader cuts at the same
// offset, and a FailingReader keeps counting the bytes it delivered.
func TestReadersSeek(t *testing.T) {
	tr := &TruncatingReader{R: strings.NewReader("hello world"), Limit: 5}
	for pass := 0; pass < 2; pass++ {
		if got, err := io.ReadAll(tr); err != nil || string(got) != "hello" {
			t.Fatalf("pass %d: got %q, %v", pass, got, err)
		}
		if _, err := tr.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
	}
	fr := &FailingReader{R: strings.NewReader("abcdef"), FailAt: 8}
	if got, err := io.ReadAll(fr); err != nil || string(got) != "abcdef" {
		t.Fatalf("first pass: got %q, %v", got, err)
	}
	if _, err := fr.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(fr); !errors.Is(err, ErrInjected) || string(got) != "ab" {
		t.Fatalf("second pass: got %q, %v; want %q and ErrInjected", got, err, "ab")
	}
}

func TestFailingWriterRejects(t *testing.T) {
	var buf bytes.Buffer
	fw := &FailingWriter{W: &buf, FailAt: 10}
	if _, err := fw.Write([]byte("0123456789")); err != nil {
		t.Fatalf("first 10 bytes should land: %v", err)
	}
	n, err := fw.Write([]byte("x"))
	if n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("write past trigger: n=%d err=%v", n, err)
	}
	if buf.String() != "0123456789" {
		t.Fatalf("buffer corrupted: %q", buf.String())
	}
}

func TestFailingWriterShortWrite(t *testing.T) {
	var buf bytes.Buffer
	fw := &FailingWriter{W: &buf, FailAt: 4, Short: true}
	n, err := fw.Write([]byte("0123456789"))
	if n != 4 || !errors.Is(err, ErrInjected) {
		t.Fatalf("short write: n=%d err=%v, want 4, ErrInjected", n, err)
	}
	if buf.String() != "0123" {
		t.Fatalf("short write delivered %q, want %q", buf.String(), "0123")
	}
}

func TestTrigger(t *testing.T) {
	tr := &Trigger{N: 2}
	fired := []bool{tr.Hit(), tr.Hit(), tr.Hit(), tr.Hit()}
	want := []bool{false, false, true, false}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("hit %d fired=%v want %v", i, fired[i], want[i])
		}
	}
	if tr.Count() != 4 {
		t.Fatalf("count = %d, want 4", tr.Count())
	}
}

const sampleCSV = "a,b,c\n1,x,2\n3,y,4\n5,z,6\n"

func TestInjectRaggedRow(t *testing.T) {
	got := InjectRaggedRow(sampleCSV, 1)
	want := "a,b,c\n1,x,2\n3,y\n5,z,6\n"
	if got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestInjectExtraField(t *testing.T) {
	got := InjectExtraField(sampleCSV, 0)
	want := "a,b,c\n1,x,2,SPURIOUS\n3,y,4\n5,z,6\n"
	if got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestInjectCellValues(t *testing.T) {
	if got := InjectNaN(sampleCSV, 2, 0); !strings.Contains(got, "NaN,z,6") {
		t.Fatalf("NaN not planted: %q", got)
	}
	if got := InjectInf(sampleCSV, 0, 2); !strings.Contains(got, "1,x,+Inf") {
		t.Fatalf("Inf not planted: %q", got)
	}
}

func TestInjectOutOfRangeRowIsNoop(t *testing.T) {
	if got := InjectRaggedRow(sampleCSV, 99); got != sampleCSV {
		t.Fatalf("out-of-range row mutated input: %q", got)
	}
	if got := InjectNaN(sampleCSV, -5, 0); got != sampleCSV {
		t.Fatalf("negative row mutated input: %q", got)
	}
}

func TestTruncateAt(t *testing.T) {
	if got := TruncateAt(sampleCSV, 8); got != "a,b,c\n1," {
		t.Fatalf("got %q", got)
	}
	if got := TruncateAt("short", 100); got != "short" {
		t.Fatalf("over-long truncate mutated input: %q", got)
	}
}
