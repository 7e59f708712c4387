package minimize

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"res/internal/evidence"
)

// keepContains builds a keep predicate that accepts any subset covering
// all of want, and counts invocations.
func keepContains(want []int, calls *int) func([]int) bool {
	return func(sub []int) bool {
		*calls++
		have := make(map[int]bool, len(sub))
		for _, i := range sub {
			have[i] = true
		}
		for _, w := range want {
			if !have[w] {
				return false
			}
		}
		return true
	}
}

func TestDDMinFindsSingleton(t *testing.T) {
	var calls int
	got := DDMin(8, keepContains([]int{5}, &calls))
	if !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("DDMin = %v; want [5]", got)
	}
	if calls == 0 {
		t.Fatal("keep never called")
	}
}

func TestDDMinFindsPair(t *testing.T) {
	got := DDMin(10, keepContains([]int{2, 7}, new(int)))
	if !reflect.DeepEqual(got, []int{2, 7}) {
		t.Fatalf("DDMin = %v; want [2 7]", got)
	}
}

func TestDDMinEmptyWhenNothingNeeded(t *testing.T) {
	got := DDMin(6, keepContains(nil, new(int)))
	if len(got) != 0 {
		t.Fatalf("DDMin = %v; want empty set", got)
	}
}

func TestDDMinKeepsEverythingWhenAllNeeded(t *testing.T) {
	all := []int{0, 1, 2, 3, 4}
	got := DDMin(5, keepContains(all, new(int)))
	if !reflect.DeepEqual(got, all) {
		t.Fatalf("DDMin = %v; want %v", got, all)
	}
}

func TestDDMinZero(t *testing.T) {
	if got := DDMin(0, func([]int) bool { t.Fatal("keep called for n=0"); return false }); len(got) != 0 {
		t.Fatalf("DDMin(0) = %v", got)
	}
}

func TestDDMinResultIsOneMinimal(t *testing.T) {
	// An awkward predicate: needs 3 scattered elements.
	want := []int{1, 6, 11}
	var calls int
	keep := keepContains(want, &calls)
	got := DDMin(13, keep)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DDMin = %v; want %v", got, want)
	}
	// 1-minimality: removing any single element must break it.
	for i := range got {
		trial := append(append([]int{}, got[:i]...), got[i+1:]...)
		if keep(trial) {
			t.Fatalf("result %v is not 1-minimal: %v still passes", got, trial)
		}
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("result %v not sorted", got)
	}
}

func TestBisectMin(t *testing.T) {
	calls := 0
	got := BisectMin(1, 100, func(v int) bool { calls++; return v >= 37 })
	if got != 37 {
		t.Fatalf("BisectMin = %d; want 37", got)
	}
	if calls > 8 {
		t.Fatalf("BisectMin used %d probes; want logarithmic", calls)
	}
	if got := BisectMin(5, 5, func(int) bool { t.Fatal("ok called for lo==hi"); return true }); got != 5 {
		t.Fatalf("BisectMin(5,5) = %d", got)
	}
}

func sampleRepro() *MinimalRepro {
	return &MinimalRepro{
		CauseKey:    "atomicity-violation@addr12",
		ProgramFP:   "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
		DumpFP:      "fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210",
		MaxDepth:    6,
		MaxNodes:    120,
		SuffixDepth: 6,
		OrigSources: 4,
		MinSources:  1,
		Runs:        17,
		Reductions:  5,
		Evidence:    evidence.Set{evidence.LBR{Mode: 1}}.Encode(),
	}
}

func TestReproWireRoundTrip(t *testing.T) {
	m := sampleRepro()
	b := m.Encode()
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got.Encode(), b) {
		t.Fatalf("decode∘encode is not a fixed point")
	}
	if got.Fingerprint() != m.Fingerprint() {
		t.Fatalf("fingerprint changed across round trip")
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip changed fields:\n got %+v\nwant %+v", got, m)
	}
}

func TestReproDecodeRejects(t *testing.T) {
	valid := sampleRepro().Encode()
	noKey := &MinimalRepro{}
	badFP := sampleRepro()
	badFP.ProgramFP = "XYZ"
	inverted := sampleRepro()
	inverted.MinSources = 9
	badEvidence := sampleRepro()
	badEvidence.Evidence = []byte("not evidence")
	cases := map[string][]byte{
		"empty":          nil,
		"bad magic":      []byte("NOTAMINR"),
		"trailing bytes": append(append([]byte{}, valid...), 1),
		"truncated":      valid[:len(valid)-3],
		"no cause key":   noKey.Encode(),
		"bad fp":         badFP.Encode(),
		"min > orig":     inverted.Encode(),
		"bad evidence":   badEvidence.Encode(),
		"overlong len":   append([]byte("RESMINR1"), append([]byte{valid[8] | 0x80, 0}, valid[9:]...)...),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted invalid input", name)
		}
	}
}

func TestReproFingerprintDistinct(t *testing.T) {
	a := sampleRepro()
	b := sampleRepro()
	b.MaxDepth++
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatalf("distinct repros share a fingerprint")
	}
}
