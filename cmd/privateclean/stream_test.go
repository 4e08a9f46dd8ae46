package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"privateclean/internal/atomicio"
	"privateclean/internal/cleaning"
	"privateclean/internal/csvio"
	"privateclean/internal/faults"
	"privateclean/internal/provenance"
	"privateclean/internal/relation"
)

func readBytes(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStreamPrivatizeCLIByteIdentical: `privatize` must release the same
// view, metadata and quarantine sidecar bytes for the same seed and chunk
// size at any worker count, with or without a -mem-budget (which -chunk
// overrides), from an input whose non-finite cell precedes a ragged row.
func TestStreamPrivatizeCLIByteIdentical(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	raw := readBytes(t, data)
	dirty := faults.InjectRaggedRow(faults.InjectCell(string(raw), 3, 1, "inf"), 10)
	if err := os.WriteFile(data, []byte(dirty), 0o644); err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i, extra := range [][]string{{"-workers", "1"}, {"-workers", "8"}, {"-workers", "3", "-mem-budget", "64k"}} {
		out := filepath.Join(dir, fmt.Sprintf("view-%d.csv", i))
		metaPath := filepath.Join(dir, fmt.Sprintf("meta-%d.json", i))
		side := filepath.Join(dir, fmt.Sprintf("side-%d.quarantine", i))
		args := []string{"privatize", "-in", data, "-out", out, "-meta", metaPath,
			"-p", "0.2", "-b", "0.5", "-seed", "7", "-chunk", "64", "-ledger", "off",
			"-on-row-error", "quarantine", "-quarantine", side}
		if err := run(append(args, extra...)); err != nil {
			t.Fatal(err)
		}
		got := [][]byte{readBytes(t, out), readBytes(t, metaPath), readBytes(t, side)}
		if i == 0 {
			if n := bytes.Count(got[2], []byte("\n")); n != 2 {
				t.Fatalf("sidecar holds %d rows, want 2", n)
			}
			want = got
		}
		for k, name := range []string{"view", "metadata", "sidecar"} {
			if !bytes.Equal(got[k], want[k]) {
				t.Fatalf("%v: %s differs from the -workers 1 run", extra, name)
			}
		}
	}
}

// TestStreamPrivatizeMemBudget: with -mem-budget and no -chunk the chunk
// size is derived, and the run is still deterministic across worker counts.
func TestStreamPrivatizeMemBudget(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	var ref []byte
	for i, workers := range []string{"1", "4"} {
		out := filepath.Join(dir, "budget-"+workers+".csv")
		metaPath := filepath.Join(dir, "budget-meta-"+workers+".json")
		if err := run([]string{"privatize", "-in", data, "-out", out, "-meta", metaPath,
			"-p", "0.2", "-b", "0.5", "-seed", "7", "-ledger", "off",
			"-mem-budget", "64k", "-workers", workers}); err != nil {
			t.Fatal(err)
		}
		got := readBytes(t, out)
		if i == 0 {
			ref = got
		} else if !bytes.Equal(got, ref) {
			t.Fatalf("workers=%s: budget-derived run not deterministic", workers)
		}
	}
}

// TestStreamPrivatizeFlagValidation: every run streams, so -stream is an
// unknown flag of privatize and clean, and -mem-budget needs a byte count.
func TestStreamPrivatizeFlagValidation(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	out := filepath.Join(dir, "out.csv")
	meta := filepath.Join(dir, "meta.json")
	for _, args := range [][]string{
		{"privatize", "-in", data, "-out", out, "-meta", meta, "-stream"},
		{"clean", "-in", data, "-out", out, "-meta", meta, "-prov", filepath.Join(dir, "prov.json"), "-op", "replace:major:a:b", "-stream"},
		{"privatize", "-in", data, "-out", out, "-meta", meta, "-mem-budget", "nope"},
	} {
		if err := run(args); !errors.Is(err, faults.ErrUsage) {
			t.Errorf("%v: got %v, want usage error", args, err)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"1024", 1024, true},
		{"64k", 64 << 10, true},
		{"64kb", 64 << 10, true},
		{"2M", 2 << 20, true},
		{"1g", 1 << 30, true},
		{" 8m ", 8 << 20, true},
		{"0", 0, false},
		{"-5k", 0, false},
		{"x", 0, false},
		{"12q", 0, false},
	}
	for _, c := range cases {
		got, err := parseBytes(c.in)
		if c.ok != (err == nil) {
			t.Errorf("parseBytes(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("parseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// residentClean is what `clean` must write: cleaning.Apply over the input
// loaded whole, with the kinds -discrete forces, rendered as the CLI renders
// the cleaned CSV and a fresh provenance store.
func residentClean(t *testing.T, in, metaPath, discrete string, specs []string) (csv, prov []byte) {
	t.Helper()
	opts := csvio.Options{ForceKinds: map[string]relation.Kind{}}
	if discrete != "" {
		opts.ForceKinds[discrete] = relation.Discrete
	}
	r, _, err := csvio.ReadFileWithReport(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := readMeta(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]cleaning.Op, len(specs))
	for i, spec := range specs {
		if ops[i], err = parseOp(spec); err != nil {
			t.Fatal(err)
		}
	}
	ctx := &cleaning.Context{Rel: r, Prov: provenance.NewStore(), Meta: meta}
	if err := cleaning.Apply(ctx, ops...); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := csvio.Write(&out, r); err != nil {
		t.Fatal(err)
	}
	j, err := atomicio.MarshalIndented(ctx.Prov)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Release()
	return out.Bytes(), bytes.Clone(j.Bytes())
}

// cleanMatchesResident runs `clean` with a fresh provenance file and
// requires residentClean's bytes.
func cleanMatchesResident(t *testing.T, in, metaPath, discrete string, specs ...string) {
	t.Helper()
	dir := t.TempDir()
	out, prov := filepath.Join(dir, "clean.csv"), filepath.Join(dir, "prov.json")
	args := []string{"clean", "-in", in, "-out", out, "-meta", metaPath, "-prov", prov}
	if discrete != "" {
		args = append(args, "-discrete", discrete)
	}
	for _, spec := range specs {
		args = append(args, "-op", spec)
	}
	if err := run(args); err != nil {
		t.Fatalf("%v: %v", specs, err)
	}
	wantCSV, wantProv := residentClean(t, in, metaPath, discrete, specs)
	if got := readBytes(t, out); !bytes.Equal(got, wantCSV) {
		t.Errorf("%v: cleaned CSV differs from the resident clean:\n%s\nwant:\n%s", specs, got, wantCSV)
	}
	if got := readBytes(t, prov); !bytes.Equal(got, wantProv) {
		t.Errorf("%v: provenance differs from the resident clean:\n%s\nwant:\n%s", specs, got, wantProv)
	}
}

// TestStreamCleanCLIMatches: `clean` reads its input in windows, and must
// write the cleaned CSV and provenance of cleaning.Apply over the input
// loaded whole, for value ops and for the ops that compile from a summary
// of the whole input.
func TestStreamCleanCLIMatches(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	private := filepath.Join(dir, "private.csv")
	meta := filepath.Join(dir, "meta.json")
	if err := run([]string{"privatize", "-in", data, "-out", private, "-meta", meta,
		"-p", "0.2", "-b", "0.5", "-seed", "7", "-ledger", "off"}); err != nil {
		t.Fatal(err)
	}
	cleanMatchesResident(t, private, meta, "",
		"replace:major:Mech. Eng.:Mechanical Engineering", "replace:major:Electrical Eng.:EE")
	cleanMatchesResident(t, private, meta, "", "md:major:2")
	cleanMatchesResident(t, private, meta, "score", "fd:score:major")
	cleanMatchesResident(t, private, meta, "score", "replace:major:Math:History", "fdimpute:score:major", "md:major:3")
}

// TestCleanAttrMissingFromMetaCLI: cleaning an attribute the view metadata
// lacks records its provenance against the input's own domain, as a clean
// of the resident input does.
func TestCleanAttrMissingFromMetaCLI(t *testing.T) {
	dir := t.TempDir()
	one, two := filepath.Join(dir, "one.csv"), filepath.Join(dir, "two.csv")
	if err := os.WriteFile(one, []byte("a\nx\ny\nx\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(two, []byte("a,b\nx,u\ny,v\nx,u\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	meta := filepath.Join(dir, "meta.json")
	if err := run([]string{"privatize", "-in", one, "-out", filepath.Join(dir, "view.csv"), "-meta", meta,
		"-p", "0.2", "-seed", "3", "-ledger", "off"}); err != nil {
		t.Fatal(err)
	}
	cleanMatchesResident(t, two, meta, "", "replace:b:u:w")
}

// TestStreamCleanKeepsOutOnChangedInput: an input that gains or loses rows
// between the summary pass and the write pass fails the clean typed
// bad-input, and an existing output stays as it was.
func TestStreamCleanKeepsOutOnChangedInput(t *testing.T) {
	for _, cut := range []bool{true, false} {
		dir := t.TempDir()
		in := writeTempCSV(t, dir)
		out := filepath.Join(dir, "out.csv")
		if err := os.WriteFile(out, []byte("previous\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		cf := &csvFlags{forceDiscrete: new(string), onRowError: new(string), quarantine: new(string)}
		*cf.forceDiscrete, *cf.onRowError = "score", "fail"
		prof, err := cf.profile(in)
		if err != nil {
			t.Fatal(err)
		}
		passes := 0
		open := func() (relation.Iterator, error) {
			if passes++; passes == 2 {
				change := func() error { return os.Truncate(in, 100) }
				if !cut {
					change = func() error { return os.WriteFile(in, append(readBytes(t, in), "Math,1\n"...), 0o644) }
				}
				if err := change(); err != nil {
					return nil, err
				}
			}
			return csvio.NewChunkIterator(in, prof, 64)
		}
		ctx := &cleaning.Context{Prov: provenance.NewStore()}
		op, err := parseOp("fd:score:major")
		if err != nil {
			t.Fatal(err)
		}
		err = writeCleaned(out, ctx, open, []cleaning.Op{op})
		if !errors.Is(err, faults.ErrBadInput) || faults.ExitCode(err) != faults.ExitBadInput {
			t.Fatalf("truncated=%v: got %v, want a bad-input failure", cut, err)
		}
		if got := string(readBytes(t, out)); got != "previous\n" {
			t.Fatalf("truncated=%v: output rewritten to %q", cut, got)
		}
	}
}

// TestStatsQueryCLIMatches: `query -stats` must print the same estimates as
// `query -in` for count/sum/avg, totals, and GROUP BY.
func TestStatsQueryCLIMatches(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	private := filepath.Join(dir, "private.csv")
	meta := filepath.Join(dir, "meta.json")
	cleaned := filepath.Join(dir, "cleaned.csv")
	prov := filepath.Join(dir, "prov.json")
	statsPath := filepath.Join(dir, "stats.json")
	for _, step := range [][]string{
		{"privatize", "-in", data, "-out", private, "-meta", meta, "-p", "0.2", "-b", "0.5", "-seed", "7", "-ledger", "off"},
		{"clean", "-in", private, "-out", cleaned, "-meta", meta, "-prov", prov,
			"-op", "replace:major:Mech. Eng.:Mechanical Engineering"},
		{"stats", "-in", cleaned, "-out", statsPath},
	} {
		if err := run(step); err != nil {
			t.Fatalf("%v: %v", step, err)
		}
	}
	queries := []string{
		"SELECT count(1) FROM R WHERE major = 'Mechanical Engineering'",
		"SELECT sum(score) FROM R WHERE major = 'Math'",
		"SELECT avg(score) FROM R WHERE major = 'History'",
		"SELECT count(1) FROM R",
		"SELECT sum(score) FROM R",
		"SELECT count(1) FROM R GROUP BY major",
	}
	for _, q := range queries {
		want := captureStdout(t, func() error {
			return run([]string{"query", "-in", cleaned, "-meta", meta, "-prov", prov, q})
		})
		got := captureStdout(t, func() error {
			return run([]string{"query", "-stats", statsPath, "-meta", meta, "-prov", prov, q})
		})
		if got != want {
			t.Errorf("query %q:\nstats: %q\nview:  %q", q, got, want)
		}
	}

	// Queries that need raw rows are typed bad-query errors.
	for _, q := range []string{
		"SELECT count(1) FROM R WHERE major = 'Math' AND score = '3'",
		"SELECT median(score) FROM R WHERE major = 'Math'",
	} {
		err := run([]string{"query", "-stats", statsPath, "-meta", meta, q})
		if !errors.Is(err, faults.ErrBadQuery) {
			t.Errorf("query %q against stats: got %v, want bad-query error", q, err)
		}
	}
	// -in and -stats together is a usage error.
	if err := run([]string{"query", "-in", cleaned, "-stats", statsPath, "-meta", meta, queries[0]}); !errors.Is(err, faults.ErrUsage) {
		t.Error("want usage error for -in with -stats")
	}
}

// TestServeStatsMatchesQueryCLI serves from sufficient statistics and
// requires the served estimates to equal `query -stats`, plus -addr-file to
// report the bound address.
func TestServeStatsMatchesQueryCLI(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	private := filepath.Join(dir, "private.csv")
	meta := filepath.Join(dir, "meta.json")
	statsPath := filepath.Join(dir, "stats.json")
	addrFile := filepath.Join(dir, "addr.txt")
	for _, step := range [][]string{
		{"privatize", "-in", data, "-out", private, "-meta", meta, "-p", "0.2", "-b", "0.5", "-seed", "7", "-ledger", "off"},
		{"stats", "-in", private, "-out", statsPath},
	} {
		if err := run(step); err != nil {
			t.Fatalf("%v: %v", step, err)
		}
	}
	queries := []string{
		"SELECT count(1) FROM R WHERE major = 'Math'",
		"SELECT avg(score) FROM R",
	}
	want := make(map[string]string, len(queries))
	for _, q := range queries {
		out := captureStdout(t, func() error {
			return run([]string{"query", "-stats", statsPath, "-meta", meta, q})
		})
		want[q] = cliEstimate(t, out)
	}

	addrCh := make(chan net.Addr, 1)
	serveNotify = func(a net.Addr) { addrCh <- a }
	defer func() { serveNotify = nil }()
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- run([]string{"serve", "-stats", statsPath, "-meta", meta,
			"-addr", "127.0.0.1:0", "-addr-file", addrFile})
	}()
	var base string
	var bound string
	select {
	case a := <-addrCh:
		bound = a.String()
		base = "http://" + bound
	case err := <-serveDone:
		t.Fatalf("serve exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not come up")
	}
	if got := strings.TrimSpace(string(readBytes(t, addrFile))); got != bound {
		t.Fatalf("addr-file %q, want %q", got, bound)
	}

	for _, q := range queries {
		body, _ := json.Marshal(map[string]string{"query": q})
		resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q: status %d: %s", q, resp.StatusCode, raw)
		}
		var qr struct {
			Estimate struct {
				Text string `json:"text"`
			} `json:"estimate"`
		}
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatalf("query %q: %v (%s)", q, err, raw)
		}
		if qr.Estimate.Text != want[q] {
			t.Fatalf("query %q: served %q != CLI %q", q, qr.Estimate.Text, want[q])
		}
	}

	// Raw-row aggregates over statistics are 400s, not 500s.
	body, _ := json.Marshal(map[string]string{"query": "SELECT median(score) FROM R WHERE major = 'Math'"})
	resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("median over stats: status %d, want 400", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down on SIGTERM")
	}
}
