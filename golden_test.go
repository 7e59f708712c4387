package res_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"res"
	"res/internal/evidence"
	"res/internal/workload"
)

const reportGolden = "testdata/report.golden"

// TestReportGolden pins analysis reports across commits. The equivalence
// tests compare two runs of one build, so a change that moved every
// report the same way would pass them; this test compares against bytes
// recorded by an earlier build. Each line is a case's name, cause key,
// replay_matches and the SHA-256 of its normalized JSON report.
func TestReportGolden(t *testing.T) {
	type reportCase struct {
		name string
		bug  *workload.Bug
		d    *res.Dump
		opts []res.Option
	}
	var cases []reportCase
	add := func(name string, bug *workload.Bug, d *res.Dump, depth int, extra ...res.Option) {
		opts := append([]res.Option{res.WithMaxDepth(depth), res.WithMaxNodes(2500), res.WithSearchParallelism(1)}, extra...)
		cases = append(cases, reportCase{name: name, bug: bug, d: d, opts: opts})
	}
	plain := func(bug *workload.Bug) *res.Dump {
		d, _, err := bug.FindFailure(60)
		if err != nil {
			t.Fatalf("%s: no failing dump: %v", bug.Name, err)
		}
		return d
	}
	for _, bug := range []*workload.Bug{
		workload.Fig1(),
		workload.RaceCounter(),
		workload.AtomViolation(),
		workload.WriteWriteRace(),
		workload.MultiSiteRace(),
		workload.AmbiguousDispatch(8),
		workload.UseAfterFree(),
		workload.TaintedOverflow(),
		workload.HealthyCompute(),
		workload.DistanceChain(6),
	} {
		d := plain(bug)
		for _, depth := range []int{4, 10, 16, 24} {
			add(fmt.Sprintf("%s/depth-%d", bug.Name, depth), bug, d, depth)
		}
	}
	for _, bug := range []*workload.Bug{workload.LongPrefix(300), workload.DeadlockBug()} {
		add(bug.Name+"/depth-24", bug, plain(bug), 24)
	}
	for _, bug := range []*workload.Bug{
		workload.RaceCounter(),
		workload.AmbiguousDispatch(8),
		workload.MultiSiteRace(),
	} {
		d, set, _, err := bug.FindFailureRecorded(60, evidence.RecordConfig{EventEvery: 3, EventWindow: 64, BranchWindow: 64})
		if err != nil {
			t.Fatalf("%s: no failing dump: %v", bug.Name, err)
		}
		add(bug.Name+"/evidence", bug, d, 10, res.WithEvidence(set...))
		add(bug.Name+"/legacy-hints", bug, d, 10, res.WithLBR(res.LBRRecordAll), res.WithMatchOutputs())
	}
	chain := workload.DistanceChain(3000)
	d, ring := checkpointed(t, chain, 16)
	add(chain.Name+"/anchored", chain, d, 24, res.WithCheckpoints(ring))

	ctx := context.Background()
	var got strings.Builder
	reports := make(map[string][]byte, len(cases))
	for _, c := range cases {
		r, err := res.NewAnalyzer(c.bug.Program(), c.opts...).Analyze(ctx, c.d)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		js := normalizedJSON(t, r)
		reports[c.name] = js
		key := "-"
		if r.Cause != nil {
			key = r.Cause.Key()
		}
		fmt.Fprintf(&got, "%s %s %t %x\n", c.name, key, r.JSONReport().ReplayMatches, sha256.Sum256(js))
	}

	want, err := os.ReadFile(filepath.FromSlash(reportGolden))
	if err != nil {
		t.Fatalf("%v; the reports read:\n%s", err, got.String())
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			name, _, _ := strings.Cut(g, " ")
			t.Errorf("line %d:\n got %q\nwant %q\nreport:\n%s", i+1, g, w, reports[name])
		}
	}
	t.Fatalf("reports differ from %s; all lines:\n%s", reportGolden, got.String())
}
