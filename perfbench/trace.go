package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a module's public
// function. Spans stay in memory while a run measures and are written out
// when it ends; nothing inside the program is instrumented.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // 1-based index of the parent span in the same recorder; 0 for a root
	Op     int    `json:"op"`     // operation the span belongs to
}

// recorder collects the spans of one client goroutine; it is not safe for
// concurrent use. A nil *recorder records nothing, so untraced code calls
// through it for free.
type recorder struct {
	client int
	epoch  time.Time
	spans  []span
}

func newRecorder(client int, epoch time.Time) *recorder {
	return &recorder{client: client, epoch: epoch}
}

// start opens a span and returns its 1-based id (0 on a nil recorder).
func (r *recorder) start(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Op: op})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.epoch))
}

// add records an already-timed span (used where the duration is derived,
// such as the HTTP request a client just completed).
func (r *recorder) add(name string, start, end time.Time, parent, op int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Parent: parent, Op: op})
	return len(r.spans)
}

// dur returns span id's duration.
func (r *recorder) dur(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	s := r.spans[id-1]
	return time.Duration(s.End - s.Start)
}

// layerTotal is the summed self time and call count of one span name.
type layerTotal struct {
	self  time.Duration
	calls int
}

// mean returns the mean self time per call in the given unit.
func (t layerTotal) mean(unit time.Duration) float64 {
	if t.calls == 0 {
		return 0
	}
	return float64(t.self) / float64(t.calls) / float64(unit)
}

// selfTimes returns, per span name, the total self time and call count: a
// span's self time is its duration minus the part of it that its children
// cover (overlapping children count once, and a child running past its
// parent counts only inside it).
func selfTimes(spans []span) map[string]layerTotal {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]layerTotal)
	for i, s := range spans {
		covered := int64(0)
		ivs := children[i+1]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		cur := [2]int64{-1, -1}
		for _, iv := range ivs {
			lo, hi := max(iv[0], s.Start), min(iv[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > cur[1] {
				covered += cur[1] - cur[0]
				cur = [2]int64{lo, hi}
			} else if hi > cur[1] {
				cur[1] = hi
			}
		}
		covered += cur[1] - cur[0]
		t := out[s.Name]
		t.self += time.Duration(s.End - s.Start - covered)
		t.calls++
		out[s.Name] = t
	}
	return out
}

// writeSpans appends every recorder's spans to path as JSON lines, one span
// per line tagged with its client.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(struct {
				Client int `json:"client"`
				span
			}{r.client, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks; xs is sorted in place. NaN for
// an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := q * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (rank-float64(lo))*(xs[lo+1]-xs[lo])
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
