package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

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

// modeRun is what one privatize run leaves behind for comparison.
type modeRun struct {
	view, meta string
	cks        []string
	fault      string // telemetry.FaultCode of the run's error, "" on success
}

// FuzzPrivatizeModes is the differential check between the two window
// sources: over random small inputs under the skip policy, random chunk
// sizes and 1 or 3 workers, the in-memory and streaming runs must agree on
// failure, and on success release the same view and metadata bytes through
// the same checkpoint trajectory.
func FuzzPrivatizeModes(f *testing.F) {
	f.Add([]byte{0, 8, 16, 2, 3, 4, 24, 32, 40, 48}, uint8(3), false, false)
	f.Add([]byte{0, 5, 6, 7, 14, 9, 17, 25, 33, 41, 49, 57}, uint8(1), true, true)
	f.Fuzz(func(t *testing.T, rows []byte, chunk uint8, threeWorkers, forceScore bool) {
		input := modeFuzzCSV(rows)
		run := func(stream bool) modeRun {
			job, _ := testJob(t, input)
			job.Stream = stream
			job.ChunkSize = 1 + int(chunk%16)
			job.Workers = 1
			if threeWorkers {
				job.Workers = 3
			}
			job.OnRowError = csvio.RowErrorSkip
			if forceScore {
				job.ForceKinds = map[string]relation.Kind{"score": relation.Numeric}
			}
			// Kind inference may make any column discrete or numeric.
			job.Params = privacy.Params{
				P: map[string]float64{"major": 0.3, "score": 0.3, "city": 0.2},
				B: map[string]float64{"major": 2, "score": 2, "city": 2},
			}
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
		mem, str := run(false), run(true)
		if mem.fault != str.fault {
			t.Fatalf("in-memory run fault %q, streaming %q", mem.fault, str.fault)
		}
		if mem.view != str.view {
			t.Fatalf("views differ:\nin memory:\n%s\nstreaming:\n%s", mem.view, str.view)
		}
		if mem.meta != str.meta {
			t.Fatalf("metadata differs:\nin memory: %s\nstreaming: %s", mem.meta, str.meta)
		}
		if len(mem.cks) != len(str.cks) {
			t.Fatalf("in-memory run wrote %d checkpoints, streaming %d", len(mem.cks), len(str.cks))
		}
		for i := range mem.cks {
			if mem.cks[i] != str.cks[i] {
				t.Fatalf("checkpoint %d differs:\nin memory: %s\nstreaming: %s", i, mem.cks[i], str.cks[i])
			}
		}
	})
}
