package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"privateclean/internal/faults"
	"privateclean/internal/privacy"
)

// The worker-pool determinism contract: a PrivatizeJob's released bytes,
// metadata, and every intermediate checkpoint are a pure function of
// (input, params, seed, chunk size) — the Workers knob must never appear in
// any artifact, and resume must compose with any mix of worker counts.

func runWithWorkers(t *testing.T, input string, workers int) (view, meta []byte) {
	t.Helper()
	job, _ := testJob(t, input)
	job.Workers = workers
	res, err := job.Run()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if res.Rows == 0 {
		t.Fatalf("workers=%d: no rows released", workers)
	}
	return readFile(t, job.Out), readFile(t, job.MetaPath)
}

func TestPipelineWorkersByteIdentical(t *testing.T) {
	input := testCSV(37) // ten chunks of four
	wantView, wantMeta := runWithWorkers(t, input, 1)
	for _, workers := range []int{2, 8} {
		gotView, gotMeta := runWithWorkers(t, input, workers)
		if string(gotView) != string(wantView) {
			t.Errorf("workers=%d view differs from serial run", workers)
		}
		if string(gotMeta) != string(wantMeta) {
			t.Errorf("workers=%d metadata differs from serial run", workers)
		}
	}
}

// TestPipelineWorkersCheckpointTrajectory: not just the final artifacts —
// the checkpoint after every chunk must be identical too, because a crash
// can strand any of them for a later resume at a different worker count.
func TestPipelineWorkersCheckpointTrajectory(t *testing.T) {
	input := testCSV(29)
	capture := func(workers int) []string {
		job, _ := testJob(t, input)
		job.Workers = workers
		var cks []string
		job.OnChunk = func(done, total int) error {
			data, err := os.ReadFile(job.checkpointPath())
			if err != nil {
				return err
			}
			cks = append(cks, string(data))
			return nil
		}
		if _, err := job.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return cks
	}
	want := capture(1)
	if len(want) == 0 {
		t.Fatal("no checkpoints captured")
	}
	for _, workers := range []int{2, 8} {
		got := capture(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d wrote %d checkpoints, serial wrote %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d checkpoint %d differs from serial run", workers, i)
			}
		}
	}
}

// TestPipelineParallelKillResumes: kill at a chunk boundary under one worker
// count, resume under another — every combination must reproduce the
// uninterrupted bytes.
func TestPipelineParallelKillResumes(t *testing.T) {
	input := testCSV(31)
	for _, tc := range []struct{ killWorkers, resumeWorkers int }{
		{8, 1}, {1, 8}, {8, 8}, {2, 2},
	} {
		t.Run(fmt.Sprintf("kill_w%d_resume_w%d", tc.killWorkers, tc.resumeWorkers), func(t *testing.T) {
			eachReference(t, input, func(t *testing.T, wantView, wantMeta []byte) {
				job, _ := testJob(t, input)
				job.Workers = tc.killWorkers
				boom := errors.New("simulated kill")
				job.OnChunk = func(done, total int) error {
					if done == 3 {
						return boom
					}
					return nil
				}
				if _, err := job.Run(); !errors.Is(err, boom) {
					t.Fatalf("interrupted run: %v, want simulated kill", err)
				}
				mustNotExist(t, job.Out)
				mustNotExist(t, job.MetaPath)

				resume := *job
				resume.OnChunk = nil
				resume.Resume = true
				resume.Workers = tc.resumeWorkers
				res, err := resume.Run()
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if res.ResumedFrom != 3 {
					t.Errorf("ResumedFrom = %d, want 3", res.ResumedFrom)
				}
				if got := readFile(t, job.Out); string(got) != string(wantView) {
					t.Errorf("resumed view differs from the reference")
				}
				if got := readFile(t, job.MetaPath); string(got) != string(wantMeta) {
					t.Errorf("resumed metadata differs from the reference")
				}
			})
		})
	}
}

// TestPipelineParallelShortWriteResumes: the fault-injection tap sits on the
// ordered committer, so an injected torn write must behave identically under
// a worker pool — typed failure, then a byte-identical resume.
func TestPipelineParallelShortWriteResumes(t *testing.T) {
	input := testCSV(18)
	eachReference(t, input, func(t *testing.T, wantView, wantMeta []byte) {
		job, _ := testJob(t, input)
		job.Workers = 8
		appends := 0
		job.tapOutput = func(w io.Writer) io.Writer {
			appends++
			if appends == 3 {
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
		resume.Workers = 8
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

// TestPipelineRefusesStaleMechanismCheckpoint: a checkpoint taken under a
// different RNG-consumption pattern must be refused, never resumed.
func TestPipelineRefusesStaleMechanismCheckpoint(t *testing.T) {
	input := testCSV(18)
	job, _ := testJob(t, input)
	boom := errors.New("simulated kill")
	job.OnChunk = func(done, total int) error {
		if done == 2 {
			return boom
		}
		return nil
	}
	if _, err := job.Run(); !errors.Is(err, boom) {
		t.Fatalf("interrupted run: %v", err)
	}
	data, err := os.ReadFile(job.checkpointPath())
	if err != nil {
		t.Fatal(err)
	}
	tampered := []byte(replaceOnce(string(data), "grr-skip/2", "grr-naive/1"))
	if err := os.WriteFile(job.checkpointPath(), tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	resume := *job
	resume.OnChunk = nil
	resume.Resume = true
	if _, err := resume.Run(); !errors.Is(err, faults.ErrCorruptCheckpoint) {
		t.Fatalf("stale mechanism resume: %v, want ErrCorruptCheckpoint", err)
	}
}

// TestPipelineKRRCheckpointTagAndResume: a k-RR job draws through GRR's
// sampler, so its checkpoint carries the one sampler tag; it resumes
// byte-identically, stamps the mechanism into the released metadata, and
// refuses a checkpoint stranded by k-RR's retired sampler ("krr-skip/2")
// over the same input and parameters.
func TestPipelineKRRCheckpointTagAndResume(t *testing.T) {
	input := testCSV(31)
	krrJob := func() *PrivatizeJob {
		job, _ := testJob(t, input)
		job.Params.Mechanism = privacy.MechKRR
		return job
	}

	ref := krrJob()
	res, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == 0 {
		t.Fatal("no rows released")
	}
	wantView, wantMeta := readFile(t, ref.Out), readFile(t, ref.MetaPath)
	if !strings.Contains(string(wantMeta), `"Mechanism": "krr"`) {
		t.Errorf("released metadata does not record the krr mechanism: %s", wantMeta)
	}

	// Kill mid-run: the stranded checkpoint must carry the sampler tag, and
	// resume must reproduce the uninterrupted bytes.
	job := krrJob()
	boom := errors.New("simulated kill")
	job.OnChunk = func(done, total int) error {
		if done == 3 {
			return boom
		}
		return nil
	}
	if _, err := job.Run(); !errors.Is(err, boom) {
		t.Fatalf("interrupted run: %v", err)
	}
	ck := readFile(t, job.checkpointPath())
	if !strings.Contains(string(ck), `"mechanism": "`+privacy.SamplerTag+`"`) {
		t.Errorf("checkpoint does not carry the sampler tag %q: %s", privacy.SamplerTag, ck)
	}
	resume := *job
	resume.OnChunk = nil
	resume.Resume = true
	if _, err := resume.Run(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := readFile(t, job.Out); string(got) != string(wantView) {
		t.Error("resumed krr view differs from uninterrupted run")
	}
	if got := readFile(t, job.MetaPath); string(got) != string(wantMeta) {
		t.Error("resumed krr metadata differs from uninterrupted run")
	}

	// Splicing samplers is refused: a checkpoint written by the retired
	// k-RR sampler has the same input, parameter and seed fingerprints, so
	// only its tag tells its durable chunks apart.
	tampered := replaceOnce(string(ck), privacy.SamplerTag, "krr-skip/2")
	if err := os.WriteFile(job.checkpointPath(), []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := *job
	stale.OnChunk = nil
	stale.Resume = true
	if _, err := stale.Run(); !errors.Is(err, faults.ErrCorruptCheckpoint) {
		t.Fatalf("resume of a krr-skip/2 checkpoint: %v, want ErrCorruptCheckpoint", err)
	}
}

// TestPipelineRejectsUnknownMechanism: a job naming a mechanism the registry
// does not know fails typed before touching the input.
func TestPipelineRejectsUnknownMechanism(t *testing.T) {
	job, _ := testJob(t, testCSV(8))
	job.Params.Mechanism = "exponential"
	if _, err := job.Run(); !errors.Is(err, faults.ErrBadParams) {
		t.Fatalf("unknown mechanism: %v, want ErrBadParams", err)
	}
	mustNotExist(t, job.Out)
	mustNotExist(t, job.MetaPath)
}

func replaceOnce(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	return s
}
