// Command perfbench is the repository's end-to-end benchmark. It hosts the
// library's public entry points in one process and drives them with inputs
// generated from --seed:
//
//	release         privatize -> load -> FD repair -> write -> pack -> collect statistics
//	query-resident  POST /v1/query against a server over a packed (.pcol) view
//	query-stats     POST /v1/query/batch against a server over sufficient statistics
//	ingest          POST /v1/report (+ GET /v1/stats) against the LDP collector
//
// Every workload replays a fixed, seed-determined sequence of operations;
// the sequence length is --seconds times the workload's nominal rate, so
// the work done never depends on how fast the machine is. Servers listen on
// 127.0.0.1 in this process; clients use keep-alive connections.
//
// Run from the repository root (run.sh builds and execs it):
//
//	perfbench --workload query-resident --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end set; with --trace 1 the run is the per-layer profile described
// in profile.go. README.md lists the workloads, sizes and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts are the run parameters every workload receives.
type opts struct {
	seed    int64
	seconds int
	dir     string // scratch directory, removed at exit
}

// ops sizes a fixed-work sequence: nominal operations per second times the
// run length, at least min.
func (o opts) ops(perSecond float64, min int) int {
	n := int(perSecond * float64(o.seconds))
	if n < min {
		n = min
	}
	return n
}

var workloads = map[string]func(opts) (*runStats, error){
	"release":        runRelease,
	"query-resident": runQueryResident,
	"query-stats":    runQueryStats,
	"ingest":         runIngest,
}

func main() {
	name := flag.String("workload", "", "release | query-resident | query-stats | ingest")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "nominal run length; sizes the fixed operation count")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer profile instead of the end-to-end run")
	work := flag.String("workdir", ".bench_build", "directory for scratch files and traces")
	flag.Parse()
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, *seconds, *trace == 1, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(name string, seed int64, seconds int, trace bool, work string) (*result, error) {
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o := opts{seed: seed, seconds: seconds, dir: dir}
	if trace {
		tracePath := filepath.Join(work, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
		return runProfile(o, tracePath)
	}
	st, err := workloads[name](o)
	if err != nil {
		return nil, err
	}
	return st.result(), nil
}

// runStats is what one end-to-end run measured.
type runStats struct {
	setups     []time.Duration // each user-visible start-up
	lat        []time.Duration // per completed operation
	attempted  int
	failed     int
	checkFails []string // first few failure messages
	wall       time.Duration
	allocBytes uint64 // TotalAlloc over the timed phase
	liveHeap   uint64 // HeapAlloc after GC at the end of the timed phase
}

// fail records a failed operation or output check.
func (s *runStats) fail(format string, args ...any) {
	s.failed++
	if len(s.checkFails) < 5 {
		s.checkFails = append(s.checkFails, fmt.Sprintf(format, args...))
	}
}

// report prints the first few failures and the operation counts.
func (s *runStats) report() {
	for _, msg := range s.checkFails {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ops (%d failed)\n", s.attempted, s.failed)
}

func (s *runStats) result() *result {
	s.report()
	lat := millis(s.lat)
	m := map[string]metric{
		"setup_s":         {percentile(millis(s.setups), 0.5) / 1e3, "s"},
		"ops_per_s":       {float64(len(s.lat)) / s.wall.Seconds(), "1/s"},
		"latency_p50_ms":  {percentile(lat, 0.5), "ms"},
		"latency_p99_ms":  {percentile(lat, 0.99), "ms"},
		"alloc_mb_per_op": {float64(s.allocBytes) / float64(s.attempted) / (1 << 20), "MB"},
		"live_heap_mb":    {float64(s.liveHeap) / (1 << 20), "MB"},
	}
	return &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}
}

// memMark reads the allocation counter at the start of a timed phase.
func memMark() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeap collects garbage and returns the bytes still reachable. It
// collects twice: the first cycle only moves sync.Pool contents to the
// victim cache, the second frees them.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// trimErr shortens a response body for an error message.
func trimErr(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
