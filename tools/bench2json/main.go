// Command bench2json converts `go test -bench` text output into the
// unified BENCH_*.json artifact: one JSON document with the machine
// context and one record per benchmark — package, name, iteration
// count, ns/op, and every custom metric (steps/sec, overhead-pct,
// depth/op, ...) keyed by its unit. Input may cover several packages;
// each result records the one it came from. Repeated runs of one
// benchmark (-count N) fold into one record: n counts them, ns_per_op,
// iterations and each metric are their median, and min and max hold
// the extremes of every unit. The perf trajectory across PRs is meant
// to be diffed by tooling, not eyeballed out of ad-hoc text.
//
// Usage: go test -bench . -count 5 | go run ./tools/bench2json > BENCH_prN.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark: a single result line, or the fold of its
// repeated runs.
type Result struct {
	Pkg        string             `json:"pkg,omitempty"`
	Name       string             `json:"name"`
	N          int                `json:"n"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	// Min and Max hold each unit's extremes over the runs, ns/op included.
	Min map[string]float64 `json:"min"`
	Max map[string]float64 `json:"max"`
}

// Artifact is the whole document.
type Artifact struct {
	GoOS    string   `json:"goos,omitempty"`
	GoArch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	art, err := convert(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}

// convert reads benchmark text output and returns the artifact, with
// repeated runs folded per package and name in first-seen order.
func convert(in io.Reader) (*Artifact, error) {
	var art Artifact
	type key struct{ pkg, name string }
	var order []key
	runs := make(map[key][]run)
	var pkg string // the package whose results the lines below are
	sc := bufio.NewScanner(in)
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
			if name, r, ok := parseResult(line); ok {
				k := key{pkg, name}
				if runs[k] == nil {
					order = append(order, k)
				}
				runs[k] = append(runs[k], r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	for _, k := range order {
		art.Results = append(art.Results, fold(k.pkg, k.name, runs[k]))
	}
	return &art, nil
}

// run is one result line: its iteration count and the value of each
// unit, ns/op included.
type run struct {
	iters float64
	vals  map[string]float64
}

// fold summarizes one benchmark's runs: their count, the median of
// every value, and each unit's min and max.
func fold(pkg, name string, runs []run) Result {
	r := Result{Pkg: pkg, Name: name, N: len(runs),
		Metrics: make(map[string]float64), Min: make(map[string]float64), Max: make(map[string]float64)}
	var iters []float64
	vals := make(map[string][]float64)
	for _, x := range runs {
		iters = append(iters, x.iters)
		for unit, v := range x.vals {
			vals[unit] = append(vals[unit], v)
		}
	}
	r.Iterations = int64(median(iters))
	for unit, vs := range vals {
		m := median(vs)
		r.Min[unit], r.Max[unit] = vs[0], vs[len(vs)-1]
		if unit == "ns/op" {
			r.NsPerOp = m
		} else {
			r.Metrics[unit] = m
		}
	}
	return r
}

// median sorts vs in place and returns its middle value, or the mean of
// the two middle ones for an even count.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// parseResult parses one result line:
//
//	BenchmarkName/sub-8   20000   210951 ns/op   6.153 overhead-pct   ...
//
// The shape after the name is an iteration count followed by
// value/unit pairs. Lines that don't fit (the bare "BenchmarkX"
// announcement under -v, PASS trailers) are skipped.
func parseResult(line string) (string, run, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return "", run{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return "", run{}, false
	}
	r := run{iters: float64(iters), vals: make(map[string]float64)}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", run{}, false
		}
		r.vals[f[i+1]] = v
	}
	_, sawNs := r.vals["ns/op"]
	return f[0], r, sawNs
}
