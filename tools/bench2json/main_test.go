package main

import (
	"strings"
	"testing"
)

// Two benchmarks, one run three times: the repeated one folds into a
// single result with its median, min, max and n; the other keeps its
// one reading with n = 1. Results keep first-seen order.
func TestConvertFoldsRepeatedRuns(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: res
cpu: Test CPU
BenchmarkA/x-2   	      10	       300 ns/op	        40 B/op	       4 allocs/op	         7.00 depth/op
BenchmarkB-2     	       5	      1000 ns/op	       900 B/op	       9 allocs/op
BenchmarkA/x-2   	      12	       100 ns/op	        20 B/op	       2 allocs/op	         5.00 depth/op
BenchmarkA/x-2   	      11	       200 ns/op	        60 B/op	       3 allocs/op	         6.00 depth/op
PASS
ok  	res	1.234s
`
	art, err := convert(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if art.GoOS != "linux" || art.CPU != "Test CPU" || len(art.Results) != 2 {
		t.Fatalf("artifact = %+v", art)
	}
	a, b := art.Results[0], art.Results[1]
	if a.Name != "BenchmarkA/x-2" || b.Name != "BenchmarkB-2" || a.Pkg != "res" {
		t.Fatalf("results out of first-seen order: %q, %q", a.Name, b.Name)
	}
	if a.N != 3 || a.Iterations != 11 || a.NsPerOp != 200 {
		t.Errorf("A: n = %d, iterations = %d, ns/op = %g; want 3, 11, 200", a.N, a.Iterations, a.NsPerOp)
	}
	for unit, want := range map[string][3]float64{
		"ns/op":     {100, 200, 300},
		"B/op":      {20, 40, 60},
		"allocs/op": {2, 3, 4},
		"depth/op":  {5, 6, 7},
	} {
		med := a.NsPerOp
		if unit != "ns/op" {
			med = a.Metrics[unit]
		}
		if got := [3]float64{a.Min[unit], med, a.Max[unit]}; got != want {
			t.Errorf("A %s: min/median/max = %v, want %v", unit, got, want)
		}
	}
	if b.N != 1 || b.NsPerOp != 1000 || b.Metrics["B/op"] != 900 || b.Min["B/op"] != 900 || b.Max["allocs/op"] != 9 {
		t.Errorf("B = %+v, want its one reading with n = 1", b)
	}
}

func TestConvertRejectsEmptyInput(t *testing.T) {
	if _, err := convert(strings.NewReader("PASS\n")); err == nil {
		t.Error("input without result lines accepted")
	}
}

// One benchmark whose runs overlap across the two sides, one whose runs
// are disjoint, one with too few runs to call, and one on each side
// only: only the disjoint unit is called, and the one-sided results are
// listed as such.
func TestCompare(t *testing.T) {
	old := &Artifact{Results: []Result{
		{Pkg: "res", Name: "BenchmarkOverlap-2", N: 5, NsPerOp: 100,
			Min: map[string]float64{"ns/op": 90}, Max: map[string]float64{"ns/op": 120}},
		{Pkg: "res", Name: "BenchmarkDisjoint-2", N: 5, NsPerOp: 400, Metrics: map[string]float64{"B/op": 1000},
			Min: map[string]float64{"ns/op": 380, "B/op": 1000}, Max: map[string]float64{"ns/op": 450, "B/op": 1000}},
		{Pkg: "res", Name: "BenchmarkFew-2", N: 1, NsPerOp: 100,
			Min: map[string]float64{"ns/op": 100}, Max: map[string]float64{"ns/op": 100}},
		{Pkg: "res", Name: "BenchmarkGone-2", N: 5, NsPerOp: 1},
	}}
	cur := &Artifact{Results: []Result{
		{Pkg: "res", Name: "BenchmarkOverlap-2", N: 5, NsPerOp: 110,
			Min: map[string]float64{"ns/op": 115}, Max: map[string]float64{"ns/op": 130}},
		{Pkg: "res", Name: "BenchmarkDisjoint-2", N: 3, NsPerOp: 200, Metrics: map[string]float64{"B/op": 10},
			Min: map[string]float64{"ns/op": 190, "B/op": 10}, Max: map[string]float64{"ns/op": 210, "B/op": 10}},
		{Pkg: "res", Name: "BenchmarkFew-2", N: 5, NsPerOp: 10,
			Min: map[string]float64{"ns/op": 9}, Max: map[string]float64{"ns/op": 11}},
		{Pkg: "res", Name: "BenchmarkNew-2", N: 5, NsPerOp: 1},
	}}
	var out strings.Builder
	if err := compare(&out, old, cur); err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		rows = append(rows, strings.Fields(line))
	}
	want := [][]string{
		{"B/op", "res", "BenchmarkDisjoint-2", "1000", "10", "0.010", "lower"},
		{"ns/op", "res", "BenchmarkOverlap-2", "100", "110", "1.100", "overlap"},
		{"ns/op", "res", "BenchmarkDisjoint-2", "400", "200", "0.500", "lower"},
		{"ns/op", "res", "BenchmarkFew-2", "100", "10", "0.100", "n<3"},
		{"only", "in", "old:", "res", "BenchmarkGone-2"},
		{"only", "in", "new:", "res", "BenchmarkNew-2"},
	}
	if len(rows) != len(want) {
		t.Fatalf("compare printed %d rows, want %d:\n%s", len(rows), len(want), out.String())
	}
	for i := range want {
		if strings.Join(rows[i], " ") != strings.Join(want[i], " ") {
			t.Errorf("row %d = %q, want %q", i, rows[i], want[i])
		}
	}
}
