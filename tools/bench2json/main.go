// Command bench2json converts `go test -bench` text output into the
// unified BENCH_pr9.json artifact: one JSON document with the machine
// context and one record per benchmark result line — package, name,
// iteration count, ns/op, and every custom metric (steps/sec,
// overhead-pct, depth/op, ...) keyed by its unit. Input may cover
// several packages; each result records the one it came from. The perf trajectory across PRs is
// meant to be diffed by tooling, not eyeballed out of ad-hoc text.
//
// Usage: go test -bench . | go run ./tools/bench2json > BENCH_pr9.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Pkg        string             `json:"pkg,omitempty"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Artifact is the whole document.
type Artifact struct {
	GoOS    string   `json:"goos,omitempty"`
	GoArch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	var art Artifact
	var pkg string // the package whose results the lines below are
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			art.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			art.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			art.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseResult(line); ok {
				r.Pkg = pkg
				art.Results = append(art.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	if len(art.Results) == 0 {
		fmt.Fprintln(os.Stderr, "bench2json: no benchmark result lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}

// parseResult parses one result line:
//
//	BenchmarkName/sub-8   20000   210951 ns/op   6.153 overhead-pct   ...
//
// The shape after the name is an iteration count followed by
// value/unit pairs. Lines that don't fit (the bare "BenchmarkX"
// announcement under -v, PASS trailers) are skipped.
func parseResult(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Iterations: iters}
	sawNs := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		if f[i+1] == "ns/op" {
			r.NsPerOp = v
			sawNs = true
			continue
		}
		if r.Metrics == nil {
			r.Metrics = make(map[string]float64)
		}
		r.Metrics[f[i+1]] = v
	}
	return r, sawNs
}
