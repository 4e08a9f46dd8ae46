package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privateclean/internal/csvio"
	"privateclean/internal/faults"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

// The cross-package fault-injection suite: every injected failure — a kill
// between chunks, a short write inside a chunk, a truncated or malformed
// input, a corrupted or mismatched checkpoint — must either complete after
// resume with output byte-identical to an uninterrupted run, or fail with a
// typed error while leaving no final artifact on disk.

// testCSV builds a small mixed-kind input with enough rows for several
// chunks.
func testCSV(rows int) string {
	var b strings.Builder
	b.WriteString("major,score\n")
	majors := []string{"EECS", "Civil Eng.", "Mech. Eng.", "Physics"}
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%s,%d\n", majors[i%len(majors)], 10+i)
	}
	return b.String()
}

// testJob wires a PrivatizeJob over a fresh temp dir.
func testJob(t *testing.T, input string) (*PrivatizeJob, string) {
	t.Helper()
	dir := t.TempDir()
	in := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(in, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	job := &PrivatizeJob{
		In:        in,
		Out:       filepath.Join(dir, "view.csv"),
		MetaPath:  filepath.Join(dir, "meta.json"),
		Params:    privacy.Params{P: map[string]float64{"major": 0.3}, B: map[string]float64{"score": 2}},
		Seed:      42,
		ChunkSize: 4,
	}
	return job, dir
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustNotExist(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("%s should not exist (stat err %v)", path, err)
	}
}

// uninterrupted runs a pristine copy of the same job and returns the output
// and metadata bytes it produces.
func uninterrupted(t *testing.T, input string) (view, meta []byte) {
	t.Helper()
	job, _ := testJob(t, input)
	res, err := job.Run()
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if res.ResumedFrom != 0 {
		t.Fatalf("fresh run reports ResumedFrom=%d", res.ResumedFrom)
	}
	return readFile(t, job.Out), readFile(t, job.MetaPath)
}

// residentView is residentRelease of a pristine copy of the same job.
func residentView(t *testing.T, input string) (view, meta []byte) {
	t.Helper()
	job, _ := testJob(t, input)
	view, meta, _, err := residentRelease(job)
	if err != nil {
		t.Fatalf("resident reference: %v", err)
	}
	return view, meta
}

// eachReference runs fn as two subtests, once per release a run must
// reproduce byte for byte. The subtests are named for the reference's window
// source: stream=false is residentRelease, which windows the input loaded
// whole, and stream=true an uninterrupted run of the job, which streams its
// windows from a csvio.ChunkIterator.
func eachReference(t *testing.T, input string, fn func(t *testing.T, wantView, wantMeta []byte)) {
	t.Helper()
	for _, stream := range []bool{false, true} {
		t.Run(fmt.Sprintf("stream=%v", stream), func(t *testing.T) {
			view, meta := residentView(t, input)
			if stream {
				view, meta = uninterrupted(t, input)
			}
			fn(t, view, meta)
		})
	}
}

func TestPipelineFreshRun(t *testing.T) {
	input := testCSV(18) // 5 chunks of 4
	job, _ := testJob(t, input)
	chunkCalls := 0
	job.OnChunk = func(done, total int) error {
		chunkCalls++
		if total != 5 {
			t.Errorf("OnChunk total = %d, want 5", total)
		}
		return nil
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 18 || res.Chunks != 5 || chunkCalls != 5 {
		t.Errorf("rows=%d chunks=%d calls=%d, want 18/5/5", res.Rows, res.Chunks, chunkCalls)
	}
	// Final state: view + meta present, scratch files gone.
	mustNotExist(t, job.partialPath())
	mustNotExist(t, job.checkpointPath())
	rel, _, err := csvio.ReadFileWithReport(job.Out, csvio.Options{})
	if err != nil {
		t.Fatalf("released view unreadable: %v", err)
	}
	if rel.NumRows() != 18 {
		t.Errorf("released view has %d rows, want 18", rel.NumRows())
	}
	if err := res.Meta.Validate(); err != nil {
		t.Errorf("released metadata invalid: %v", err)
	}
}

// TestPipelineKillBetweenChunksResumes is the headline acceptance check:
// abort at a clean chunk boundary, resume, and demand byte-identical output.
func TestPipelineKillBetweenChunksResumes(t *testing.T) {
	input := testCSV(18)
	for _, killAt := range []int{1, 3, 5} { // first, middle, and after-final chunk
		t.Run(fmt.Sprintf("kill_after_chunk_%d", killAt), func(t *testing.T) {
			eachReference(t, input, func(t *testing.T, wantView, wantMeta []byte) {
				job, _ := testJob(t, input)
				boom := errors.New("simulated kill")
				job.OnChunk = func(done, total int) error {
					if done == killAt {
						return boom
					}
					return nil
				}
				if _, err := job.Run(); !errors.Is(err, boom) {
					t.Fatalf("interrupted run: %v, want simulated kill", err)
				}
				// The kill must not have published anything final.
				mustNotExist(t, job.Out)
				mustNotExist(t, job.MetaPath)

				resume := *job
				resume.OnChunk = nil
				resume.Resume = true
				res, err := resume.Run()
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if res.ResumedFrom != killAt {
					t.Errorf("ResumedFrom = %d, want %d", res.ResumedFrom, killAt)
				}
				if got := readFile(t, job.Out); string(got) != string(wantView) {
					t.Errorf("resumed view differs from the reference")
				}
				if got := readFile(t, job.MetaPath); string(got) != string(wantMeta) {
					t.Errorf("resumed metadata differs from the reference")
				}
				mustNotExist(t, job.partialPath())
				mustNotExist(t, job.checkpointPath())
			})
		})
	}
}

// TestPipelineShortWriteResumes injects a short write in the middle of a
// chunk append: the run must fail typed, and a resume must discard the torn
// bytes and still produce byte-identical output.
func TestPipelineShortWriteResumes(t *testing.T) {
	input := testCSV(18)
	eachReference(t, input, func(t *testing.T, wantView, wantMeta []byte) {
		job, _ := testJob(t, input)
		appends := 0
		job.tapOutput = func(w io.Writer) io.Writer {
			appends++
			if appends == 3 { // torn write inside the third chunk
				return &faults.FailingWriter{W: w, FailAt: 7, Short: true}
			}
			return w
		}
		_, err := job.Run()
		if !errors.Is(err, faults.ErrPartialWrite) || !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("short write: %v, want ErrPartialWrite via ErrInjected", err)
		}
		mustNotExist(t, job.Out)
		mustNotExist(t, job.MetaPath)

		resume := *job
		resume.tapOutput = nil
		resume.Resume = true
		res, err := resume.Run()
		if err != nil {
			t.Fatalf("resume after short write: %v", err)
		}
		if res.ResumedFrom != 2 {
			t.Errorf("ResumedFrom = %d, want 2", res.ResumedFrom)
		}
		if got := readFile(t, job.Out); string(got) != string(wantView) {
			t.Errorf("resumed view differs from the reference")
		}
		if got := readFile(t, job.MetaPath); string(got) != string(wantMeta) {
			t.Errorf("resumed metadata differs from the reference")
		}
	})
}

// TestPipelineCrashBeforeFirstCheckpoint: a failure before any chunk is
// durable has no checkpoint to resume from; a fresh run must recover and
// match the uninterrupted output.
func TestPipelineCrashBeforeFirstCheckpoint(t *testing.T) {
	input := testCSV(18)
	wantView, _ := uninterrupted(t, input)

	job, _ := testJob(t, input)
	job.tapOutput = func(w io.Writer) io.Writer {
		return &faults.FailingWriter{W: w, FailAt: 0}
	}
	if _, err := job.Run(); !errors.Is(err, faults.ErrPartialWrite) {
		t.Fatalf("first-chunk failure: %v, want ErrPartialWrite", err)
	}
	mustNotExist(t, job.Out)
	mustNotExist(t, job.checkpointPath())

	// Resume is a usage error (nothing durable yet) ...
	resume := *job
	resume.tapOutput = nil
	resume.Resume = true
	if _, err := resume.Run(); !errors.Is(err, faults.ErrUsage) {
		t.Fatalf("resume without checkpoint: %v, want ErrUsage", err)
	}
	// ... and a fresh run recovers completely.
	fresh := *job
	fresh.tapOutput = nil
	if _, err := fresh.Run(); err != nil {
		t.Fatalf("fresh rerun: %v", err)
	}
	if got := readFile(t, job.Out); string(got) != string(wantView) {
		t.Errorf("rerun view differs from uninterrupted run")
	}
}

// TestPipelineCrashDuringFinalize covers the window after the partial view
// was renamed into place but before the checkpoint was removed: resume must
// finish the bookkeeping idempotently.
func TestPipelineCrashDuringFinalize(t *testing.T) {
	input := testCSV(18)
	eachReference(t, input, func(t *testing.T, wantView, wantMeta []byte) {
		job, _ := testJob(t, input)
		boom := errors.New("simulated kill")
		job.OnChunk = func(done, total int) error {
			if done == total {
				return boom
			}
			return nil
		}
		if _, err := job.Run(); !errors.Is(err, boom) {
			t.Fatal("expected simulated kill after final chunk")
		}
		// Simulate the crash landing between the rename and checkpoint removal.
		if err := os.Rename(job.partialPath(), job.Out); err != nil {
			t.Fatal(err)
		}
		resume := *job
		resume.OnChunk = nil
		resume.Resume = true
		res, err := resume.Run()
		if err != nil {
			t.Fatalf("resume during finalize: %v", err)
		}
		if res.ResumedFrom != res.Chunks {
			t.Errorf("ResumedFrom = %d, want %d (all chunks durable)", res.ResumedFrom, res.Chunks)
		}
		if got := readFile(t, job.Out); string(got) != string(wantView) {
			t.Errorf("finalized view differs from the reference")
		}
		if got := readFile(t, job.MetaPath); string(got) != string(wantMeta) {
			t.Errorf("finalized metadata differs from the reference")
		}
		mustNotExist(t, job.checkpointPath())
	})
}

// TestPipelineTruncatedInput: a file cut mid-row fails typed before any
// artifact is created.
func TestPipelineTruncatedInput(t *testing.T) {
	input := testCSV(18)
	job, _ := testJob(t, faults.TruncateAt(input, len(input)-4))
	if _, err := job.Run(); !errors.Is(err, faults.ErrBadInput) {
		t.Fatalf("truncated input: %v, want ErrBadInput", err)
	}
	mustNotExist(t, job.Out)
	mustNotExist(t, job.MetaPath)
	mustNotExist(t, job.partialPath())
	mustNotExist(t, job.checkpointPath())
}

// TestPipelineRowPolicies: malformed rows are skipped or quarantined per the
// job's policy instead of aborting the release.
func TestPipelineRowPolicies(t *testing.T) {
	input := faults.InjectRaggedRow(testCSV(18), 5)

	job, _ := testJob(t, input)
	if _, err := job.Run(); !errors.Is(err, faults.ErrBadInput) {
		t.Fatalf("fail policy: %v, want ErrBadInput", err)
	}

	skip, _ := testJob(t, input)
	skip.OnRowError = csvio.RowErrorSkip
	res, err := skip.Run()
	if err != nil {
		t.Fatalf("skip policy: %v", err)
	}
	if res.Report.Skipped != 1 || res.Rows != 17 {
		t.Errorf("skip policy: skipped=%d rows=%d, want 1/17", res.Report.Skipped, res.Rows)
	}

	quar, _ := testJob(t, input)
	quar.OnRowError = csvio.RowErrorQuarantine
	res, err = quar.Run()
	if err != nil {
		t.Fatalf("quarantine policy: %v", err)
	}
	if res.Report.Quarantined != 1 {
		t.Errorf("quarantine policy: quarantined=%d, want 1", res.Report.Quarantined)
	}
	sidecar := readFile(t, quar.quarantinePath())
	if !strings.Contains(string(sidecar), "Civil Eng.") {
		t.Errorf("quarantine sidecar is missing the bad row: %q", sidecar)
	}
}

// TestPipelineQuarantineSidecarAtomic: the sidecar is written atomically, so
// a load that fails partway neither tears it nor truncates a previous run's
// sidecar — and the failure keeps its own taxonomy kind (the atomic-write
// wrapper must not reclassify a bad input as a partial write).
func TestPipelineQuarantineSidecarAtomic(t *testing.T) {
	job, dir := testJob(t, "major,major\n1,2\n") // duplicate header: load fails
	job.OnRowError = csvio.RowErrorQuarantine
	prev := "rows quarantined by a previous run\n"
	if err := os.WriteFile(job.quarantinePath(), []byte(prev), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(); !errors.Is(err, faults.ErrBadInput) {
		t.Fatalf("duplicate-header load: %v, want ErrBadInput", err)
	}
	if got := readFile(t, job.quarantinePath()); string(got) != prev {
		t.Errorf("failed load clobbered the previous sidecar: %q", got)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("failed load leaked temp files: %v", tmps)
	}
}

// TestPipelineRejectsUnsafeParams: the pipeline is the strict boundary — a
// non-randomizing parameter that the library tolerates must be rejected here
// before any bytes are written.
func TestPipelineRejectsUnsafeParams(t *testing.T) {
	for name, params := range map[string]privacy.Params{
		"zero_p":  {P: map[string]float64{"major": 0}, B: map[string]float64{"score": 2}},
		"zero_b":  {P: map[string]float64{"major": 0.3}, B: map[string]float64{"score": 0}},
		"missing": {P: map[string]float64{}, B: map[string]float64{"score": 2}},
	} {
		t.Run(name, func(t *testing.T) {
			job, _ := testJob(t, testCSV(8))
			job.Params = params
			if _, err := job.Run(); !errors.Is(err, faults.ErrBadParams) {
				t.Fatalf("got %v, want ErrBadParams", err)
			}
			mustNotExist(t, job.Out)
			mustNotExist(t, job.partialPath())
		})
	}
}

// TestPipelineCheckpointValidation: every way a checkpoint can lie about its
// provenance is detected as ErrCorruptCheckpoint.
func TestPipelineCheckpointValidation(t *testing.T) {
	input := testCSV(18)
	interrupted := func(t *testing.T) *PrivatizeJob {
		job, _ := testJob(t, input)
		boom := errors.New("kill")
		job.OnChunk = func(done, total int) error {
			if done == 2 {
				return boom
			}
			return nil
		}
		if _, err := job.Run(); !errors.Is(err, boom) {
			t.Fatal("setup: interrupted run did not stop")
		}
		job.OnChunk = nil
		job.Resume = true
		return job
	}

	t.Run("garbage_json", func(t *testing.T) {
		job := interrupted(t)
		if err := os.WriteFile(job.checkpointPath(), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := job.Run(); !errors.Is(err, faults.ErrCorruptCheckpoint) {
			t.Fatalf("got %v, want ErrCorruptCheckpoint", err)
		}
	})

	t.Run("input_changed", func(t *testing.T) {
		job := interrupted(t)
		if err := os.WriteFile(job.In, []byte(testCSV(18)+"EECS,99\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := job.Run(); !errors.Is(err, faults.ErrCorruptCheckpoint) {
			t.Fatalf("got %v, want ErrCorruptCheckpoint", err)
		}
	})

	t.Run("params_changed", func(t *testing.T) {
		job := interrupted(t)
		job.Params.P["major"] = 0.5
		if _, err := job.Run(); !errors.Is(err, faults.ErrCorruptCheckpoint) {
			t.Fatalf("got %v, want ErrCorruptCheckpoint", err)
		}
	})

	t.Run("seed_changed", func(t *testing.T) {
		job := interrupted(t)
		job.Seed = 7
		if _, err := job.Run(); !errors.Is(err, faults.ErrCorruptCheckpoint) {
			t.Fatalf("got %v, want ErrCorruptCheckpoint", err)
		}
	})

	t.Run("chunk_size_changed", func(t *testing.T) {
		job := interrupted(t)
		job.ChunkSize = 8
		if _, err := job.Run(); !errors.Is(err, faults.ErrCorruptCheckpoint) {
			t.Fatalf("got %v, want ErrCorruptCheckpoint", err)
		}
	})

	t.Run("rng_stream_tampered", func(t *testing.T) {
		job := interrupted(t)
		data := readFile(t, job.checkpointPath())
		tampered := strings.Replace(string(data), `"rng_stream": `, `"rng_stream": 1`, 1)
		if err := os.WriteFile(job.checkpointPath(), []byte(tampered), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := job.Run(); !errors.Is(err, faults.ErrCorruptCheckpoint) {
			t.Fatalf("got %v, want ErrCorruptCheckpoint", err)
		}
	})

	t.Run("partial_shorter_than_checkpoint", func(t *testing.T) {
		job := interrupted(t)
		if err := os.Truncate(job.partialPath(), 3); err != nil {
			t.Fatal(err)
		}
		if _, err := job.Run(); !errors.Is(err, faults.ErrCorruptCheckpoint) {
			t.Fatalf("got %v, want ErrCorruptCheckpoint", err)
		}
	})

	t.Run("partial_with_torn_tail", func(t *testing.T) {
		// Extra bytes beyond the checkpoint are a torn chunk write, not
		// corruption: resume truncates them and completes byte-identically.
		wantView, _ := uninterrupted(t, input)
		job := interrupted(t)
		f, err := os.OpenFile(job.partialPath(), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString("EECS,torn-re"); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, err := job.Run(); err != nil {
			t.Fatalf("resume with torn tail: %v", err)
		}
		if got := readFile(t, job.Out); string(got) != string(wantView) {
			t.Errorf("view differs after torn-tail recovery")
		}
	})
}

// TestPipelineEmptyInput: a header-only input releases a header-only view.
func TestPipelineEmptyInput(t *testing.T) {
	job, _ := testJob(t, "major,score\n")
	// No rows means no kind inference; pin the schema explicitly.
	job.ForceKinds = map[string]relation.Kind{"major": relation.Discrete, "score": relation.Numeric}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 0 || res.Chunks != 0 {
		t.Errorf("rows=%d chunks=%d, want 0/0", res.Rows, res.Chunks)
	}
	if got := readFile(t, job.Out); string(got) != "major,score\n" {
		t.Errorf("empty view = %q, want header only", got)
	}
	mustNotExist(t, job.checkpointPath())
}

// TestPipelineEpsilonAccounting: the checkpoint carries the running privacy
// spend so an operator inspecting a crashed job sees what was already
// released.
func TestPipelineEpsilonAccounting(t *testing.T) {
	job, _ := testJob(t, testCSV(18))
	boom := errors.New("kill")
	job.OnChunk = func(done, total int) error {
		if done == 3 {
			return boom
		}
		return nil
	}
	if _, err := job.Run(); !errors.Is(err, boom) {
		t.Fatal("setup: run did not stop")
	}
	ck, err := (&PrivatizeJob{
		In: job.In, Out: job.Out, MetaPath: job.MetaPath,
		Params: job.Params, Seed: job.Seed, ChunkSize: job.ChunkSize,
	}).readCheckpointForTest(job)
	if err != nil {
		t.Fatal(err)
	}
	if ck.RowsEmitted != 12 {
		t.Errorf("RowsEmitted = %d, want 12 (3 chunks of 4)", ck.RowsEmitted)
	}
	if ck.EpsilonPerRecord <= 0 {
		t.Errorf("EpsilonPerRecord = %v, want > 0", ck.EpsilonPerRecord)
	}
}

// readCheckpointForTest exposes checkpoint loading with fresh fingerprints
// recomputed the same way Run does.
func (job *PrivatizeJob) readCheckpointForTest(src *PrivatizeJob) (*checkpoint, error) {
	inputSHA, err := fingerprintFile(src.In)
	if err != nil {
		return nil, err
	}
	r, _, err := csvio.ReadFileWithReport(src.In, csvio.Options{})
	if err != nil {
		return nil, err
	}
	fresh := &checkpoint{
		Version:   checkpointVersion,
		Mechanism: privacy.SamplerTag,
		InputSHA:  inputSHA,
		ParamsSHA: fingerprintParams(src.Params),
		Seed:      src.Seed,
		ChunkSize: src.ChunkSize,
		Rows:      r.NumRows(),
	}
	return src.readCheckpoint(fresh)
}
