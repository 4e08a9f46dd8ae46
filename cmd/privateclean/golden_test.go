package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// update rewrites the golden files from the current output:
//
//	go test ./cmd/privateclean/ -run TestGolden -update
//
// Inspect the diff before committing — the goldens lock output bytes.
var update = flag.Bool("update", false, "rewrite golden files from current output")

// wallRe matches the wall-clock token of the privatize summary, the only
// nondeterministic part of the output under a fixed seed.
var wallRe = regexp.MustCompile(`wall=[^ \n]+`)

func scrubWall(s string) string {
	return wallRe.ReplaceAllString(s, "wall=SCRUBBED")
}

// golden compares got against testdata/golden/<name>, rewriting the file
// under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create it): %v", name, err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenPrivatize locks the privatize CLI's stdout, view bytes, and
// metadata bytes under a fixed seed. Any drift — float formatting, column
// order, schema changes, RNG consumption order — shows up as a byte diff.
func TestGoldenPrivatize(t *testing.T) {
	dir := t.TempDir()
	view := filepath.Join(dir, "view.csv")
	meta := filepath.Join(dir, "meta.json")
	out := captureStdout(t, func() error {
		return run([]string{"privatize",
			"-in", filepath.Join("testdata", "example.csv"),
			"-out", view, "-meta", meta,
			"-p", "0.2", "-b", "0.5", "-seed", "42", "-ledger", "off"})
	})
	golden(t, "privatize_stdout.golden", []byte(scrubWall(out)))
	viewBytes, err := os.ReadFile(view)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "view.csv.golden", viewBytes)
	metaBytes, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "meta.json.golden", metaBytes)
}

// TestGoldenQuery locks the query CLI's stdout against the golden view:
// estimate values, confidence intervals, and rendering all pinned.
func TestGoldenQuery(t *testing.T) {
	view := filepath.Join("testdata", "golden", "view.csv.golden")
	meta := filepath.Join("testdata", "golden", "meta.json.golden")
	if _, err := os.Stat(view); err != nil {
		t.Fatalf("golden view missing (run TestGoldenPrivatize with -update first): %v", err)
	}
	cases := []struct {
		name string
		sql  string
	}{
		{"query_count.golden", "SELECT count(1) FROM R WHERE major = 'Math'"},
		{"query_sum_in.golden", "SELECT sum(score) FROM R WHERE major IN ('Math', 'Mech. Eng.')"},
		{"query_avg.golden", "SELECT avg(score) FROM R WHERE major = 'History'"},
		{"query_groupby.golden", "SELECT count(1) FROM R GROUP BY major"},
		{"query_quantile.golden", "SELECT quantile(score, 0.9) FROM R WHERE major = 'Math'"},
		{"query_median.golden", "SELECT median(score) FROM R WHERE major = 'Math'"},
		{"query_groupby_sum.golden", "SELECT sum(score) FROM R GROUP BY major"},
		{"query_groupby_avg.golden", "SELECT avg(score) FROM R GROUP BY major"},
		{"query_groupby_bin.golden", "SELECT count(1) FROM R GROUP BY bin(score)"},
	}
	for _, c := range cases {
		out := captureStdout(t, func() error {
			return run([]string{"query", "-in", view, "-meta", meta, c.sql})
		})
		golden(t, c.name, []byte(out))
	}
}

// TestGoldenQueryStats locks the stats-path CLI output against the same
// golden view: statistics collected once with the released bin layout, then
// queried with -stats. Every shape the stats path answers reuses the
// resident golden file — the byte-identity contract.
func TestGoldenQueryStats(t *testing.T) {
	view := filepath.Join("testdata", "golden", "view.csv.golden")
	meta := filepath.Join("testdata", "golden", "meta.json.golden")
	if _, err := os.Stat(view); err != nil {
		t.Fatalf("golden view missing (run TestGoldenPrivatize with -update first): %v", err)
	}
	stats := filepath.Join(t.TempDir(), "stats.json")
	if err := run([]string{"stats", "-in", view, "-meta", meta, "-out", stats}); err != nil {
		t.Fatalf("stats: %v", err)
	}
	cases := []struct {
		name string
		sql  string
	}{
		{"query_count.golden", "SELECT count(1) FROM R WHERE major = 'Math'"},
		{"query_sum_in.golden", "SELECT sum(score) FROM R WHERE major IN ('Math', 'Mech. Eng.')"},
		{"query_avg.golden", "SELECT avg(score) FROM R WHERE major = 'History'"},
		{"query_groupby.golden", "SELECT count(1) FROM R GROUP BY major"},
		{"query_groupby_sum.golden", "SELECT sum(score) FROM R GROUP BY major"},
		{"query_groupby_avg.golden", "SELECT avg(score) FROM R GROUP BY major"},
		{"query_groupby_bin.golden", "SELECT count(1) FROM R GROUP BY bin(score)"},
		{"query_median.golden", "SELECT median(score) FROM R WHERE major = 'Math'"},
		{"query_quantile.golden", "SELECT quantile(score, 0.9) FROM R WHERE major = 'Math'"},
	}
	for _, c := range cases {
		out := captureStdout(t, func() error {
			return run([]string{"query", "-stats", stats, "-meta", meta, c.sql})
		})
		golden(t, c.name, []byte(out))
	}
}

// cleanOpSets are the op chains TestGoldenClean locks: every CLI op kind
// alone, and two-op chains that put a global op (md, fd, fdimpute) ahead of
// or behind another op.
var cleanOpSets = [][]string{
	{"replace:city:Berkley:Berkeley"},
	{"nullify:city:Berkeley,Oakland,NYC"},
	{"md:city:2"},
	{"fd:zip:city"},
	{"fdimpute:zip:city"},
	{"replace:city:Berkley:Berkeley", "nullify:city:Berkeley,Oakland,NYC"},
	{"md:city:2", "replace:city:Berkeley:Oakland"},
	{"fdimpute:zip:city", "fd:zip:city"},
	{"fd:zip:city", "nullify:city:Berkeley,Oakland"},
	{"nullify:city:Berkeley,Oakland", "fd:zip:city"},
	{"fdimpute:zip:city", "replace:city:Oakland:Berkeley"},
}

// writeDirtyCSV writes a zip -> city table with misspelled and missing
// cities, so every op kind has something to repair.
func writeDirtyCSV(t *testing.T, dir string) string {
	t.Helper()
	cities := []string{"Berkeley", "Berkley", "Oakland", "Berkeley", "Oaklnd", "", "NYC", "Oakland", "NYCC"}
	var sb strings.Builder
	sb.WriteString("zip,city\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "z%d,%s\n", i%7, cities[(i*i+3*i/7)%len(cities)])
	}
	path := filepath.Join(dir, "dirty.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGoldenClean locks the cleaned CSV and provenance bytes `clean` writes
// for every op set.
func TestGoldenClean(t *testing.T) {
	dir := t.TempDir()
	private := filepath.Join(dir, "private.csv")
	meta := filepath.Join(dir, "meta.json")
	if err := run([]string{"privatize", "-in", writeDirtyCSV(t, dir), "-out", private, "-meta", meta,
		"-p", "0.2", "-b", "0.5", "-seed", "5", "-ledger", "off"}); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i, ops := range cleanOpSets {
		out := filepath.Join(dir, fmt.Sprintf("clean-%d.csv", i))
		prov := filepath.Join(dir, fmt.Sprintf("prov-%d.json", i))
		args := []string{"clean", "-in", private, "-out", out, "-meta", meta, "-prov", prov}
		for _, op := range ops {
			args = append(args, "-op", op)
		}
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		fmt.Fprintf(&want, "== %s\n%s%s\n", strings.Join(ops, " "), readBytes(t, out), readBytes(t, prov))
	}
	golden(t, "clean.golden", want.Bytes())
}
