package core

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"privateclean/internal/atomicio"
	"privateclean/internal/csvio"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// modeFuzzCSV renders one major,score,city row per input byte: the low
// three bits pick the row's shape — clean, an empty cell, NaN, or a row the
// skip policy drops (wrong arity, a bad or non-finite number, a bare quote)
// — and the high bits its values.
func modeFuzzCSV(rows []byte) string {
	var b strings.Builder
	b.WriteString("major,score,city\n")
	for _, x := range rows {
		v := int(x >> 3)
		switch x & 7 {
		case 0, 1:
			fmt.Fprintf(&b, "m%d,%d.5,c%d\n", v%5, v, v%3)
		case 2:
			fmt.Fprintf(&b, ",%d,c%d\n", v, v%3)
		case 3:
			fmt.Fprintf(&b, "m%d,,c%d\n", v%5, v%3)
		case 4:
			fmt.Fprintf(&b, "m%d,NaN,\n", v%5)
		case 5:
			fmt.Fprintf(&b, "m%d,%d\n", v%5, v)
		case 6:
			if v%2 == 0 {
				fmt.Fprintf(&b, "m%d,x%d,c1\n", v%5, v)
			} else {
				fmt.Fprintf(&b, "m%d,+Inf,c1\n", v%5)
			}
		case 7:
			fmt.Fprintf(&b, "m\"%d,%d,c1\n", v%5, v)
		}
	}
	return b.String()
}

// residentRelease is the release job must write, computed with its input
// resident: loaded whole (csvio.ReadFileWithReport), cut into ChunkSize
// windows, each privatized with its chunk's RNG stream and rendered, the
// header once (alone for an empty input), with no ChunkIterator, worker pool
// or checkpoint in the way. sidecar holds the rows the quarantine policy
// diverts; err is the failure the job must fail with.
func residentRelease(job *PrivatizeJob) (view, meta, sidecar []byte, err error) {
	var side bytes.Buffer
	opts := csvio.Options{ForceKinds: job.ForceKinds, OnRowError: job.OnRowError}
	if job.OnRowError == csvio.RowErrorQuarantine {
		opts.Quarantine = &side
	}
	r, _, err := csvio.ReadFileWithReport(job.In, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := job.Params.Validate(r.Schema(), true); err != nil {
		return nil, nil, nil, err
	}
	m, err := privacy.ViewMetaFor(r, job.Params)
	if err != nil {
		return nil, nil, nil, err
	}
	var out bytes.Buffer
	if r.NumRows() == 0 {
		data, err := renderChunk(relation.New(r.Schema()), true)
		if err != nil {
			return nil, nil, nil, err
		}
		out.Write(data)
	}
	for k := 0; k*job.ChunkSize < r.NumRows(); k++ {
		win, err := r.Window(chunkRange(k, job.ChunkSize, r.NumRows()))
		if err != nil {
			return nil, nil, nil, err
		}
		priv, err := privacy.PrivatizeWithMeta(privacy.StreamRand(job.Seed, k), win, m)
		if err != nil {
			return nil, nil, nil, err
		}
		data, err := renderChunk(priv, k == 0)
		if err != nil {
			return nil, nil, nil, err
		}
		out.Write(data)
	}
	j, err := atomicio.MarshalIndented(m)
	if err != nil {
		return nil, nil, nil, err
	}
	defer j.Release()
	return out.Bytes(), bytes.Clone(j.Bytes()), side.Bytes(), nil
}

// modeRun is what one privatize run leaves behind for comparison.
type modeRun struct {
	view, meta string
	cks        []string
	fault      string // telemetry.FaultCode of the run's error, "" on success
}

// FuzzPrivatizeModes is the differential check between the job and the
// resident reference (residentRelease): over random small inputs under the
// skip policy and random chunk sizes, runs at one worker and at 2 or 3 must
// fail as the reference does, and on success release its view and metadata
// bytes through the same checkpoint trajectory.
func FuzzPrivatizeModes(f *testing.F) {
	f.Add([]byte{0, 8, 16, 2, 3, 4, 24, 32, 40, 48}, uint8(3), false, false)
	f.Add([]byte{0, 5, 6, 7, 14, 9, 17, 25, 33, 41, 49, 57}, uint8(1), true, true)
	f.Fuzz(func(t *testing.T, rows []byte, chunk uint8, threeWorkers, forceScore bool) {
		input := modeFuzzCSV(rows)
		newJob := func(workers int) *PrivatizeJob {
			job, _ := testJob(t, input)
			job.ChunkSize = 1 + int(chunk%16)
			job.Workers = workers
			job.OnRowError = csvio.RowErrorSkip
			if forceScore {
				job.ForceKinds = map[string]relation.Kind{"score": relation.Numeric}
			}
			// Kind inference may make any column discrete or numeric.
			job.Params = privacy.Params{
				P: map[string]float64{"major": 0.3, "score": 0.3, "city": 0.2},
				B: map[string]float64{"major": 2, "score": 2, "city": 2},
			}
			return job
		}
		run := func(workers int) modeRun {
			job := newJob(workers)
			var out modeRun
			job.OnChunk = func(done, total int) error {
				data, err := os.ReadFile(job.checkpointPath())
				out.cks = append(out.cks, string(data))
				return err
			}
			if _, err := job.Run(); err != nil {
				out.fault = telemetry.FaultCode(err)
				return out
			}
			out.view, out.meta = string(readFile(t, job.Out)), string(readFile(t, job.MetaPath))
			return out
		}
		var want modeRun
		view, meta, _, err := residentRelease(newJob(1))
		if err != nil {
			want.fault = telemetry.FaultCode(err)
		} else {
			want.view, want.meta = string(view), string(meta)
		}
		pooled := 2
		if threeWorkers {
			pooled = 3
		}
		serial := run(1)
		for _, got := range []modeRun{serial, run(pooled)} {
			if got.fault != want.fault {
				t.Fatalf("run fault %q, resident reference %q", got.fault, want.fault)
			}
			if got.view != want.view {
				t.Fatalf("views differ:\nrun:\n%s\nresident reference:\n%s", got.view, want.view)
			}
			if got.meta != want.meta {
				t.Fatalf("metadata differs:\nrun: %s\nresident reference: %s", got.meta, want.meta)
			}
			if len(got.cks) != len(serial.cks) {
				t.Fatalf("run wrote %d checkpoints, serial run %d", len(got.cks), len(serial.cks))
			}
			for i := range got.cks {
				if got.cks[i] != serial.cks[i] {
					t.Fatalf("checkpoint %d differs:\nrun: %s\nserial run: %s", i, got.cks[i], serial.cks[i])
				}
			}
		}
	})
}
