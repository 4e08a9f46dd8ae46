package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privateclean/internal/cleaning"
	"privateclean/internal/core"
	"privateclean/internal/csvio"
	"privateclean/internal/faults"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

// writeTempCSV writes a small dirty evaluations CSV and returns its path.
func writeTempCSV(t *testing.T, dir string) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("major,score\n")
	variants := []string{"Mechanical Engineering", "Mech. Eng.", "Electrical Eng.", "Math", "History"}
	for i := 0; i < 600; i++ {
		sb.WriteString(variants[i%len(variants)])
		sb.WriteString(",")
		sb.WriteString([]string{"1", "2", "3", "4", "5"}[(i/len(variants))%5])
		sb.WriteString("\n")
	}
	path := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestEndToEndCLIWorkflow(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	private := filepath.Join(dir, "private.csv")
	meta := filepath.Join(dir, "meta.json")
	cleaned := filepath.Join(dir, "cleaned.csv")
	prov := filepath.Join(dir, "prov.json")

	steps := [][]string{
		{"privatize", "-in", data, "-out", private, "-meta", meta, "-p", "0.15", "-b", "0.5", "-seed", "3", "-discrete", "score"},
		{"clean", "-in", private, "-out", cleaned, "-meta", meta, "-prov", prov, "-discrete", "score",
			"-op", "replace:major:Mech. Eng.:Mechanical Engineering"},
		{"query", "-in", cleaned, "-meta", meta, "-prov", prov, "-discrete", "score",
			"SELECT count(1) FROM R WHERE major = 'Mechanical Engineering'"},
		{"query", "-in", cleaned, "-meta", meta, "-prov", prov, "-discrete", "score",
			"SELECT count(1) FROM R GROUP BY major"},
		{"query", "-in", cleaned, "-meta", meta, "-discrete", "score",
			"SELECT count(1) FROM R"},
		{"query", "-in", cleaned, "-meta", meta, "-prov", prov, "-discrete", "score",
			"SELECT count(1) FROM R WHERE major = 'Math' AND score = '3'"},
		{"query", "-in", cleaned, "-meta", meta, "-discrete", "score",
			"SELECT count(1) FROM R WHERE major = 'Math'"},
		{"tune", "-in", data, "-error", "0.1"},
		{"minsize", "-n", "25", "-p", "0.25"},
		{"epsilon", "-in", data, "-eps", "4"},
		{"help"},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
	// Artifacts exist.
	for _, p := range []string{private, meta, cleaned, prov} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("missing artifact %s: %v", p, err)
		}
	}
	// A second clean invocation composes onto the existing provenance.
	err := run([]string{"clean", "-in", cleaned, "-out", cleaned, "-meta", meta, "-prov", prov, "-discrete", "score",
		"-op", "replace:major:Electrical Eng.:EE"})
	if err != nil {
		t.Fatalf("second clean: %v", err)
	}
}

// Note: the score column is forced discrete in the workflow test so the
// privatized "score" strings survive the CSV round trip; privatize treats
// forced-discrete columns with randomized response.

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	cases := [][]string{
		{},
		{"bogus"},
		{"privatize"},
		{"privatize", "-in", filepath.Join(dir, "missing.csv"), "-out", "x", "-meta", "y"},
		{"tune"},
		{"tune", "-in", data, "-error", "0.000001"},
		{"minsize"},
		{"clean", "-in", data, "-out", "x", "-meta", "nope.json", "-prov", "p.json", "-op", "replace:a:b:c"},
		{"clean", "-in", data, "-out", "x", "-meta", "nope.json", "-prov", "p.json"},
		{"query"},
		{"query", "-in", data, "-meta", "nope.json", "SELECT count(1) FROM R"},
		{"epsilon"},
		{"epsilon", "-in", data, "-eps", "-1"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestParseOp(t *testing.T) {
	good := map[string]string{
		"replace:major:a:b":   "find-replace",
		"md:country:1":        "md-repair",
		"fd:city,county:st":   "fd-repair",
		"fdimpute:section:in": "fd-impute",
		"nullify:id:a,b":      "nullify-invalid",
	}
	for spec, wantPrefix := range good {
		op, err := parseOp(spec)
		if err != nil {
			t.Fatalf("parseOp(%q): %v", spec, err)
		}
		if !strings.HasPrefix(op.Name(), wantPrefix) {
			t.Fatalf("parseOp(%q) = %q, want prefix %q", spec, op.Name(), wantPrefix)
		}
	}
	bad := []string{
		"",
		"replace",
		"replace:a:b",
		"md:a",
		"md:a:x",
		"fd:a",
		"fdimpute:a",
		"nullify:a",
		"unknown:a:b",
	}
	for _, spec := range bad {
		if _, err := parseOp(spec); err == nil {
			t.Errorf("parseOp(%q) should fail", spec)
		}
	}
}

func TestOpListFlag(t *testing.T) {
	var ops opList
	if err := ops.Set("replace:a:b:c"); err != nil {
		t.Fatal(err)
	}
	if err := ops.Set("md:a:2"); err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops.String() != "2 ops" {
		t.Fatalf("ops = %v (%s)", ops, ops.String())
	}
	if err := ops.Set("bogus"); err == nil {
		t.Fatal("want error for bad spec")
	}
	var _ cleaning.Op = ops[0]
}

func TestNullifyOpValidSet(t *testing.T) {
	op, err := parseOp("nullify:id:s1,s2")
	if err != nil {
		t.Fatal(err)
	}
	nv := op.(cleaning.NullifyInvalid)
	if !nv.Valid("s1") || !nv.Valid("s2") || nv.Valid("zzz") {
		t.Fatal("validity set wrong")
	}
}

func TestExplainSubcommand(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	private := filepath.Join(dir, "p.csv")
	meta := filepath.Join(dir, "m.json")
	cleaned := filepath.Join(dir, "c.csv")
	prov := filepath.Join(dir, "pr.json")
	steps := [][]string{
		{"privatize", "-in", data, "-out", private, "-meta", meta, "-p", "0.2", "-b", "0.5", "-discrete", "score"},
		{"clean", "-in", private, "-out", cleaned, "-meta", meta, "-prov", prov, "-discrete", "score",
			"-op", "replace:major:Mech. Eng.:Mechanical Engineering"},
		{"explain", "-meta", meta, "-prov", prov, "SELECT count(1) FROM R WHERE major = 'Mechanical Engineering'"},
		{"explain", "-meta", meta, "SELECT count(1) FROM R WHERE major = 'Math'"},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
	bad := [][]string{
		{"explain"},
		{"explain", "-meta", meta, "SELECT count(1) FROM R"},
		{"explain", "-meta", "missing.json", "SELECT count(1) FROM R WHERE a = 'x'"},
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestDescribeSubcommand(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	if err := run([]string{"describe", "-in", data}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"describe", "-in", data, "-discrete", "score"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"describe"}); err == nil {
		t.Fatal("want error for missing -in")
	}
	if err := run([]string{"describe", "-in", filepath.Join(dir, "missing.csv")}); err == nil {
		t.Fatal("want error for missing file")
	}
}

// TestExitCodes pins the error-taxonomy-to-exit-code mapping the CLI
// promises in docs/ROBUSTNESS.md.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	out := filepath.Join(dir, "out.csv")
	metaPath := filepath.Join(dir, "meta.json")
	badMeta := filepath.Join(dir, "bad-meta.json")
	if err := os.WriteFile(badMeta, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A valid release so query/explain have real metadata to work with.
	if err := run([]string{"privatize", "-in", data, "-out", out, "-meta", metaPath,
		"-p", "0.15", "-b", "0.5", "-discrete", "score"}); err != nil {
		t.Fatal(err)
	}

	// The same view as a .pcol and as sufficient statistics, so the
	// bad-query rows cover all three query inputs.
	col := filepath.Join(dir, "out.pcol")
	stats := filepath.Join(dir, "stats.json")
	for _, args := range [][]string{
		{"pack", "-in", out, "-out", col, "-discrete", "score"},
		{"stats", "-in", out, "-out", stats, "-discrete", "score"},
	} {
		if err := run(args); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no_subcommand", []string{}, faults.ExitUsage},
		{"unknown_subcommand", []string{"bogus"}, faults.ExitUsage},
		{"missing_flags", []string{"privatize"}, faults.ExitUsage},
		{"bad_flag", []string{"privatize", "-in", data, "-out", out, "-meta", metaPath, "-nope"}, faults.ExitUsage},
		{"bad_row_policy", []string{"describe", "-in", data, "-on-row-error", "explode"}, faults.ExitUsage},
		{"resume_without_checkpoint", []string{"privatize", "-in", data, "-out",
			filepath.Join(dir, "r.csv"), "-meta", filepath.Join(dir, "r.json"), "-resume"}, faults.ExitUsage},
		{"missing_input", []string{"privatize", "-in", filepath.Join(dir, "missing.csv"),
			"-out", out, "-meta", metaPath}, faults.ExitBadInput},
		{"corrupt_meta", []string{"query", "-in", out, "-meta", badMeta, "-discrete", "score",
			"SELECT count(1) FROM R"}, faults.ExitBadMeta},
		{"bad_params", []string{"privatize", "-in", data, "-out", out, "-meta", metaPath,
			"-p", "2"}, faults.ExitBadParams},
		{"bad_query", []string{"query", "-in", out, "-meta", metaPath, "-discrete", "score",
			"SELECT nonsense"}, faults.ExitBadQuery},
		{"unknown_udf_in", []string{"query", "-in", out, "-meta", metaPath, "-discrete", "score",
			"SELECT count(1) FROM R WHERE nosuch(major)"}, faults.ExitBadQuery},
		{"unknown_column_in", []string{"query", "-in", out, "-meta", metaPath, "-discrete", "score",
			"SELECT count(1) FROM R WHERE nosuch = 'x'"}, faults.ExitBadQuery},
		{"unknown_udf_col", []string{"query", "-col", col, "-meta", metaPath,
			"SELECT count(1) FROM R WHERE nosuch(major)"}, faults.ExitBadQuery},
		{"unknown_column_col", []string{"query", "-col", col, "-meta", metaPath,
			"SELECT count(1) FROM R WHERE nosuch = 'x'"}, faults.ExitBadQuery},
		{"unknown_udf_stats", []string{"query", "-stats", stats, "-meta", metaPath,
			"SELECT count(1) FROM R WHERE nosuch(major)"}, faults.ExitBadQuery},
		{"unknown_column_stats", []string{"query", "-stats", stats, "-meta", metaPath,
			"SELECT count(1) FROM R WHERE nosuch = 'x'"}, faults.ExitBadQuery},
		{"ok", []string{"minsize", "-n", "25", "-p", "0.25"}, faults.ExitOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if got := faults.ExitCode(err); got != tc.want {
				t.Errorf("run(%v) exit code = %d (err %v), want %d", tc.args, got, err, tc.want)
			}
		})
	}
}

// A release without a bin layout (privatize -bins 0) answers resident
// quantiles, like GROUP BY bin(a), with a typed bad-query error naming
// -bins, from both a CSV and a .pcol view.
func TestQueryWithoutBinLayoutNamesBins(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	out := filepath.Join(dir, "out.csv")
	col := filepath.Join(dir, "out.pcol")
	metaPath := filepath.Join(dir, "meta.json")
	for _, args := range [][]string{
		{"privatize", "-in", data, "-out", out, "-meta", metaPath, "-p", "0.15", "-b", "0.5", "-bins", "0", "-ledger", "off"},
		{"pack", "-in", out, "-out", col},
	} {
		if err := run(args); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range [][]string{{"-in", out}, {"-col", col}} {
		for _, sql := range []string{
			"SELECT median(score) FROM R WHERE major = 'Math'",
			"SELECT quantile(score, 0.9) FROM R",
			"SELECT count(1) FROM R GROUP BY bin(score)",
		} {
			err := run(append(append([]string{"query"}, src...), "-meta", metaPath, sql))
			if !errors.Is(err, faults.ErrBadQuery) || !strings.Contains(err.Error(), "-bins") {
				t.Errorf("%s %s: got %v, want a bad-query error naming -bins", src[0], sql, err)
			}
		}
	}
}

// TestExitCodeCorruptCheckpoint needs an on-disk checkpoint to corrupt, so
// it drives an interruption through the core job first.
func TestExitCodeCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	out := filepath.Join(dir, "view.csv")
	metaPath := filepath.Join(dir, "meta.json")
	if err := os.WriteFile(out+".ckpt", []byte("{definitely not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"privatize", "-in", data, "-out", out, "-meta", metaPath,
		"-p", "0.15", "-b", "0.5", "-discrete", "score", "-resume"})
	if got := faults.ExitCode(err); got != faults.ExitCheckpoint {
		t.Errorf("exit code = %d (err %v), want %d", got, err, faults.ExitCheckpoint)
	}
}

// TestPrivatizeResumeCLI is the CLI half of the resume acceptance check: an
// interrupted release finished with `privatize -resume` must be
// byte-identical to an uninterrupted run with the same seed and chunking.
func TestPrivatizeResumeCLI(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	flags := []string{"-p", "0.15", "-b", "0.5", "-seed", "3", "-chunk", "128", "-discrete", "score"}

	outA := filepath.Join(dir, "a.csv")
	metaA := filepath.Join(dir, "a.json")
	if err := run(append([]string{"privatize", "-in", data, "-out", outA, "-meta", metaA}, flags...)); err != nil {
		t.Fatal(err)
	}

	// Interrupt a second run after 2 of its 5 chunks, using the same
	// parameters the CLI would derive.
	kinds := map[string]relation.Kind{"score": relation.Discrete}
	r, _, err := csvio.ReadFileWithReport(data, csvio.Options{ForceKinds: kinds})
	if err != nil {
		t.Fatal(err)
	}
	outB := filepath.Join(dir, "b.csv")
	metaB := filepath.Join(dir, "b.json")
	boom := errors.New("kill")
	job := &core.PrivatizeJob{
		In: data, Out: outB, MetaPath: metaB,
		Params:     privacy.Uniform(r.Schema(), 0.15, 0.5),
		Seed:       3,
		ChunkSize:  128,
		ForceKinds: kinds,
		OnChunk: func(done, total int) error {
			if done == 2 {
				return boom
			}
			return nil
		},
	}
	if _, err := job.Run(); !errors.Is(err, boom) {
		t.Fatalf("interrupted run: %v", err)
	}

	if err := run(append([]string{"privatize", "-in", data, "-out", outB, "-meta", metaB, "-resume"}, flags...)); err != nil {
		t.Fatalf("CLI resume: %v", err)
	}
	wantView, _ := os.ReadFile(outA)
	gotView, err := os.ReadFile(outB)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotView) != string(wantView) {
		t.Error("resumed CLI view differs from uninterrupted run")
	}
	wantMeta, _ := os.ReadFile(metaA)
	gotMeta, _ := os.ReadFile(metaB)
	if string(gotMeta) != string(wantMeta) {
		t.Error("resumed CLI metadata differs from uninterrupted run")
	}
}

// TestPipeInputCLI: every CSV load reads its input twice, so an input that
// cannot be reread, such as the /dev/fd path of a process substitution,
// fails with exit 3 before a byte of it is read.
func TestPipeInputCLI(t *testing.T) {
	dir := t.TempDir()
	raw, err := os.ReadFile(writeTempCSV(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	in := fmt.Sprintf("/dev/fd/%d", pr.Fd())
	if _, err := os.Stat(in); err != nil {
		t.Skipf("no %s: %v", in, err)
	}
	go func() {
		pw.Write(raw)
		pw.Close()
	}()
	out, metaPath := filepath.Join(dir, "out.csv"), filepath.Join(dir, "meta.json")
	for _, args := range [][]string{
		{"describe", "-in", in},
		{"pack", "-in", in, "-out", filepath.Join(dir, "v.pcol")},
		{"privatize", "-in", in, "-out", out, "-meta", metaPath, "-p", "0.15", "-b", "0.5"},
	} {
		err := run(args)
		if got := faults.ExitCode(err); got != faults.ExitBadInput || !strings.Contains(fmt.Sprint(err), "not a pipe") {
			t.Errorf("%v: exit %d (err %v), want %d naming the pipe", args, got, err, faults.ExitBadInput)
		}
	}
	if rest, _ := io.ReadAll(pr); !bytes.Equal(rest, raw) {
		t.Errorf("the pipe lost %d of its %d bytes", len(raw)-len(rest), len(raw))
	}
}

// TestRowPolicyFlagsCLI exercises -on-row-error and -quarantine end to end.
func TestRowPolicyFlagsCLI(t *testing.T) {
	dir := t.TempDir()
	data := writeTempCSV(t, dir)
	raw, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte(faults.InjectRaggedRow(string(raw), 10)), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.csv")
	metaPath := filepath.Join(dir, "meta.json")

	err = run([]string{"privatize", "-in", bad, "-out", out, "-meta", metaPath, "-p", "0.15", "-b", "0.5", "-discrete", "score"})
	if got := faults.ExitCode(err); got != faults.ExitBadInput {
		t.Fatalf("default policy: exit %d (err %v), want %d", got, err, faults.ExitBadInput)
	}

	if err := run([]string{"privatize", "-in", bad, "-out", out, "-meta", metaPath,
		"-p", "0.15", "-b", "0.5", "-discrete", "score", "-on-row-error", "skip"}); err != nil {
		t.Fatalf("skip policy: %v", err)
	}

	sidecar := filepath.Join(dir, "rejects.csv")
	if err := run([]string{"describe", "-in", bad, "-on-row-error", "quarantine", "-quarantine", sidecar}); err != nil {
		t.Fatalf("quarantine policy: %v", err)
	}
	side, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
	if !strings.Contains(string(side), "Mechanical Engineering") {
		t.Errorf("sidecar content = %q, want the malformed row", side)
	}

	// A quarantine privatize run profiles its input once: one lossy-load
	// warning, and the malformed row counted (and written to the sidecar)
	// once.
	var logs bytes.Buffer
	oldDest := logDest
	logDest = &logs
	defer func() { logDest = oldDest }()
	metricsPath := filepath.Join(dir, "m.prom")
	if err := run([]string{"privatize", "-in", bad, "-out", out, "-meta", metaPath, "-p", "0.15", "-b", "0.5",
		"-discrete", "score", "-on-row-error", "quarantine", "-quarantine", sidecar, "-metrics-out", metricsPath}); err != nil {
		t.Fatalf("quarantine privatize: %v", err)
	}
	if n := strings.Count(logs.String(), "lossy CSV load"); n != 1 {
		t.Errorf("%d lossy-load warnings, want 1:\n%s", n, logs.String())
	}
	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := `privateclean_csv_rows_malformed_total{code="arity",policy="quarantine"} 1` + "\n"; !strings.Contains(string(prom), want) {
		t.Errorf("metrics lack %q:\n%s", want, prom)
	}
	if side2, err := os.ReadFile(sidecar); err != nil || !bytes.Equal(side2, side) {
		t.Errorf("sidecar %q (%v), want %q", side2, err, side)
	}
}
