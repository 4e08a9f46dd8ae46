package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"privateclean/internal/csvio"
	"privateclean/internal/faults"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// The out-of-core contract: for the same (input, params, seed, chunk size),
// a run must release the exact bytes of privatizing the input loaded whole
// (residentRelease): the view, the metadata, and the quarantine sidecar, at
// any worker count and through the same checkpoints, while keeping resident
// memory bounded by the chunk window rather than the input size.

// captureRun executes a job and returns (view, meta, checkpoint trajectory).
func captureRun(t *testing.T, job *PrivatizeJob) (view, meta []byte, cks []string) {
	t.Helper()
	job.OnChunk = func(done, total int) error {
		data, err := os.ReadFile(job.checkpointPath())
		if err != nil {
			return err
		}
		cks = append(cks, string(data))
		return nil
	}
	if _, err := job.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return readFile(t, job.Out), readFile(t, job.MetaPath), cks
}

func TestStreamByteIdenticalToInMemory(t *testing.T) {
	input := testCSV(37) // ten chunks of four
	wantView, wantMeta := residentView(t, input)
	var wantCks []string
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			job, _ := testJob(t, input)
			job.Workers = workers
			gotView, gotMeta, gotCks := captureRun(t, job)
			if string(gotView) != string(wantView) {
				t.Errorf("view differs from the resident reference")
			}
			if string(gotMeta) != string(wantMeta) {
				t.Errorf("metadata differs from the resident reference")
			}
			if wantCks == nil {
				wantCks = gotCks
			}
			if len(gotCks) != len(wantCks) {
				t.Fatalf("run wrote %d checkpoints, serial run %d", len(gotCks), len(wantCks))
			}
			for i := range gotCks {
				if gotCks[i] != wantCks[i] {
					t.Errorf("checkpoint %d differs from serial run", i)
				}
			}
		})
	}
}

// checkResident runs job and requires residentRelease's view, metadata and
// quarantine sidecar.
func checkResident(t *testing.T, job *PrivatizeJob) {
	t.Helper()
	wantView, wantMeta, wantSide, err := residentRelease(job)
	if err != nil {
		t.Fatal(err)
	}
	gotView, gotMeta, _ := captureRun(t, job)
	if string(gotView) != string(wantView) {
		t.Errorf("view %q, resident reference %q", gotView, wantView)
	}
	if string(gotMeta) != string(wantMeta) {
		t.Errorf("metadata differs from the resident reference")
	}
	if job.OnRowError == csvio.RowErrorQuarantine {
		if got := readFile(t, job.quarantinePath()); string(got) != string(wantSide) {
			t.Errorf("quarantine sidecar %q, resident reference %q", got, wantSide)
		}
	}
}

func TestStreamSkipPolicyByteIdentical(t *testing.T) {
	var b strings.Builder
	b.WriteString("major,score\n")
	for i := 0; i < 40; i++ {
		switch {
		case i%11 == 0:
			b.WriteString("EECS,1,extra\n") // arity reject
		case i%13 == 0:
			b.WriteString("EECS,nope\n") // bad numeric reject
		default:
			fmt.Fprintf(&b, "m%d,%d\n", i%3, i)
		}
	}
	job, _ := testJob(t, b.String())
	job.OnRowError = csvio.RowErrorSkip
	// Without forcing, the "nope" cell would demote score to a discrete
	// column instead of exercising the bad_numeric reject path.
	job.ForceKinds = map[string]relation.Kind{"score": relation.Numeric}
	job.Workers = 4
	checkResident(t, job)
}

func TestStreamEmptyInput(t *testing.T) {
	job, _ := testJob(t, "major,score\n")
	// A header-only file has no cells to infer kinds from; force the kinds
	// the job's params expect.
	job.ForceKinds = map[string]relation.Kind{"score": relation.Numeric}
	checkResident(t, job)
}

// TestStreamResume aborts a run at a chunk boundary and resumes it at the
// same worker count, demanding the uninterrupted bytes.
func TestStreamResume(t *testing.T) {
	input := testCSV(37)
	wantView, wantMeta := uninterrupted(t, input)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			job, _ := testJob(t, input)
			job.Workers = workers
			boom := errors.New("injected abort")
			job.OnChunk = func(done, total int) error {
				if done == 3 {
					return boom
				}
				return nil
			}
			if _, err := job.Run(); !errors.Is(err, boom) {
				t.Fatalf("aborted run: %v, want injected abort", err)
			}
			resume, _ := testJob(t, input)
			resume.In, resume.Out, resume.MetaPath = job.In, job.Out, job.MetaPath
			resume.Workers = workers
			resume.Resume = true
			res, err := resume.Run()
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if res.ResumedFrom != 3 {
				t.Errorf("ResumedFrom = %d, want 3", res.ResumedFrom)
			}
			if string(readFile(t, resume.Out)) != string(wantView) {
				t.Error("resumed view differs from uninterrupted run")
			}
			if string(readFile(t, resume.MetaPath)) != string(wantMeta) {
				t.Error("resumed metadata differs from uninterrupted run")
			}
		})
	}
}

func TestChunkSizeForBudget(t *testing.T) {
	prof := &csvio.Profile{Rows: 100_000, DataBytes: 2_000_000} // 20 B/row
	cases := []struct {
		budget int64
		want   int
	}{
		{0, DefaultChunkSize},          // no budget: default
		{-5, DefaultChunkSize},         // nonsense budget: default
		{1 << 20, 1 << 20 / (20 * 48)}, // proportional to budget
		{1, minStreamChunk},            // tiny budget clamps up
		{1 << 62, maxStreamChunk},      // huge budget clamps down
	}
	for _, tc := range cases {
		if got := chunkSizeForBudget(tc.budget, prof); got != tc.want {
			t.Errorf("chunkSizeForBudget(%d) = %d, want %d", tc.budget, got, tc.want)
		}
	}
	if got := chunkSizeForBudget(1<<20, &csvio.Profile{Rows: 0}); got != DefaultChunkSize {
		t.Errorf("empty profile: %d, want default", got)
	}
	// The derived size must not depend on worker count (byte-identity).
}

// TestStreamOutOfCore processes an input several times larger than the memory
// budget and asserts the resident heap stays bounded by the chunk window, not
// the input size.
func TestStreamOutOfCore(t *testing.T) {
	if testing.Short() {
		t.Skip("out-of-core soak skipped in -short mode")
	}
	var b strings.Builder
	b.WriteString("major,score,note\n")
	rows := 120_000
	// note stays low-cardinality: GRR legitimately keeps the full domain of
	// every discrete attribute resident, so a high-cardinality column would
	// measure the domain index, not the streaming window.
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "major-%02d,%d.25,note-pad-pad-pad-%02d\n", i%23, 10+i%1000, i%53)
	}
	input := b.String()
	inputBytes := int64(len(input)) // ~4.5 MB

	job, _ := testJob(t, input)
	job.ChunkSize = 0
	job.MemBudget = 1 << 20 // 1 MiB, several times smaller than the input
	job.Workers = 2
	job.Params.P["note"] = 0.2

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak uint64
	sample := 0
	job.OnChunk = func(done, total int) error {
		sample++
		if sample%16 != 0 {
			return nil
		}
		// Collect before sampling so HeapAlloc reflects the live set, not
		// uncollected per-chunk garbage.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		return nil
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != rows {
		t.Fatalf("released %d rows, want %d", res.Rows, rows)
	}
	if res.Chunks < 4 {
		t.Fatalf("only %d chunks; input should span many mem-budget windows", res.Chunks)
	}
	if peak == 0 {
		t.Fatal("no heap samples taken")
	}
	// A resident load would hold the decoded relation plus the private
	// copy (≥ 2× input bytes). The run must stay well under one input's
	// worth of growth over the baseline; allow slack for the profile's
	// domain maps, GC lag between samples, and the inflight window ring.
	growth := int64(peak) - int64(base.HeapAlloc)
	if growth > inputBytes {
		t.Errorf("heap grew by %d bytes over baseline; want < %d (input size) for an out-of-core run", growth, inputBytes)
	}
	t.Logf("input=%d bytes, chunks=%d, heap growth=%d bytes", inputBytes, res.Chunks, growth)
}

// TestStreamQuarantineSidecarRowSet: the quarantine sidecar holds the rows
// of the resident reference's, byte for byte and in input order.
func TestStreamQuarantineSidecarRowSet(t *testing.T) {
	var b strings.Builder
	b.WriteString("major,score\n")
	for i := 0; i < 30; i++ {
		if i%7 == 0 {
			b.WriteString("EECS,1,extra\n")
		} else {
			fmt.Fprintf(&b, "m%d,%d\n", i%3, i)
		}
	}
	job, _ := testJob(t, b.String())
	job.OnRowError = csvio.RowErrorQuarantine
	checkResident(t, job)
}

// faultyWindows passes an iterator's windows through, except that chunk
// failAt comes back one row short — or, with eof, the input ends there.
type faultyWindows struct {
	relation.Iterator
	chunk, failAt int
	eof           bool
}

func (f *faultyWindows) Next() (*relation.Relation, error) {
	win, err := f.Iterator.Next()
	chunk := f.chunk
	f.chunk++
	if err != nil || chunk != f.failAt {
		return win, err
	}
	if f.eof {
		return nil, io.EOF
	}
	return win.Window(0, win.NumRows()-1)
}

// TestWriteChunksRejectsBadWindows: a window that does not cover the rows
// the chunk contract assigns (the input changed under the run) fails typed at
// that chunk, after every earlier chunk is durable, and a resume over the
// real input completes byte-identically.
func TestWriteChunksRejectsBadWindows(t *testing.T) {
	input := testCSV(37) // ten chunks of four
	wantView, wantMeta := uninterrupted(t, input)
	const failAt = 3
	for _, eof := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("eof=%v/workers=%d", eof, workers), func(t *testing.T) {
				// The subtests name the window source: stream=false windows the
				// input loaded whole, stream=true is the job's ChunkIterator.
				for _, stream := range []bool{false, true} {
					t.Run(fmt.Sprintf("stream=%v", stream), func(t *testing.T) {
						rejectBadWindow(t, input, wantView, wantMeta, failAt, eof, workers, stream)
					})
				}
			})
		}
	}
}

// rejectBadWindow is one case of TestWriteChunksRejectsBadWindows.
func rejectBadWindow(t *testing.T, input string, wantView, wantMeta []byte, failAt int, eof bool, workers int, stream bool) {
	job, _ := testJob(t, input)
	job.Workers = workers
	job.tel = telemetry.Default()
	job.span = job.tel.Trace.StartSpan(nil, "privatize")
	meta, _, it, err := job.load()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var windows relation.Iterator = it
	if !stream {
		r, _, err := csvio.ReadFileWithReport(job.In, csvio.Options{})
		if err != nil {
			t.Fatal(err)
		}
		windows = relation.NewSliceIterator(r, job.ChunkSize)
	}
	inputSHA, err := fingerprintFile(job.In)
	if err != nil {
		t.Fatal(err)
	}
	ck := job.freshCheckpoint(inputSHA, meta)
	chunks := (meta.Rows + job.ChunkSize - 1) / job.ChunkSize
	err = job.writeChunks(ck, &faultyWindows{Iterator: windows, failAt: failAt, eof: eof}, meta, meta.Rows, chunks)
	if !errors.Is(err, faults.ErrBadInput) || !strings.Contains(err.Error(), "file changed during the run?") {
		t.Fatalf("bad window: %v, want ErrBadInput naming a changed file", err)
	}

	var disk checkpoint
	if err := json.Unmarshal(readFile(t, job.checkpointPath()), &disk); err != nil {
		t.Fatal(err)
	}
	if disk.NextChunk != failAt {
		t.Errorf("checkpoint next_chunk = %d, want %d", disk.NextChunk, failAt)
	}
	if size := int64(len(readFile(t, job.partialPath()))); size != disk.PartialBytes {
		t.Errorf("partial view is %d bytes, checkpoint covers %d", size, disk.PartialBytes)
	}

	resume := *job
	resume.Resume = true
	res, err := resume.Run()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.ResumedFrom != failAt {
		t.Errorf("ResumedFrom = %d, want %d", res.ResumedFrom, failAt)
	}
	if string(readFile(t, job.Out)) != string(wantView) || string(readFile(t, job.MetaPath)) != string(wantMeta) {
		t.Error("resumed release differs from uninterrupted run")
	}
}
