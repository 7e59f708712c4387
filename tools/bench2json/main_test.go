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
