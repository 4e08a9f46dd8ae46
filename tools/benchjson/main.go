// Command benchjson converts `go test -bench` text output (stdin) into a
// JSON document (stdout) so CI can archive benchmark numbers in a
// machine-readable form alongside the raw lines, which stay
// benchstat-compatible.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | go run ./tools/benchjson > BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line, e.g.
//
//	BenchmarkPrivatizeJob-8  90  13201821 ns/op  378755 rows/s  1993132 B/op  20356 allocs/op
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds the remaining unit -> value pairs (custom b.ReportMetric
	// units like "rows/s" or "PrivateClean-err-%").
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Raw     string             `json:"raw"`
}

// Report is the whole document: the run's environment header plus results.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{Results: []Result{}}
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, err := parseResult(line)
			if err != nil {
				return nil, err
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep, sc.Err()
}

func parseResult(line string) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, fmt.Errorf("short benchmark line %q", line)
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("iterations in %q: %w", line, err)
	}
	res := Result{Name: fields[0], Iterations: iters, Raw: line}
	// The remainder is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, fmt.Errorf("value %q in %q: %w", fields[i], line, err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
	}
	return res, nil
}
