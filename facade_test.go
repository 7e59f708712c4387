package res_test

import (
	"context"
	"strings"
	"testing"

	"res"
	"res/internal/workload"
)

func TestAnalyzeFlagsHardwareViaFacade(t *testing.T) {
	bug := workload.HealthyCompute()
	p := bug.Program()
	d, _, err := bug.FindFailure(2)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := p.GlobalAddr("g")
	d.Mem.Store(g, d.Mem.Load(g)^8)
	r, err := res.NewAnalyzer(p, res.WithMaxDepth(8)).Analyze(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HardwareSuspect {
		t.Errorf("corrupted dump not flagged; stats %+v", r.Report.Stats)
	}
	if r.Cause != nil {
		t.Errorf("cause reported for an inconsistent dump: %v", r.Cause)
	}
	if !strings.Contains(r.Describe(), "hardware") {
		t.Errorf("Describe = %q", r.Describe())
	}
}

func TestDescribeWithCause(t *testing.T) {
	bug := workload.TaintedOverflow()
	d, _, err := bug.FindFailure(4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := res.NewAnalyzer(bug.Program(), res.WithMaxDepth(8)).Analyze(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	desc := r.Describe()
	if !strings.Contains(desc, "root cause") {
		t.Errorf("Describe = %q", desc)
	}
	if !strings.Contains(desc, "ATTACKER-CONTROLLED") {
		t.Errorf("exploitability missing from %q", desc)
	}
}

func TestAnalyzeWithBreadcrumbOptions(t *testing.T) {
	// The facade's LBR and output-matching options must not change the
	// verdict, only (potentially) the effort.
	bug := workload.DistanceChain(8)
	p := bug.Program()
	d, _, err := bug.FindFailure(2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := res.NewAnalyzer(p, res.WithMaxDepth(12)).Analyze(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := res.NewAnalyzer(p, res.WithMaxDepth(12), res.WithLBR(res.LBRRecordAll), res.WithMatchOutputs()).
		Analyze(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cause == nil || pruned.Cause == nil {
		t.Fatalf("causes: %v vs %v", plain.Cause, pruned.Cause)
	}
	if plain.Cause.Key() != pruned.Cause.Key() {
		t.Errorf("breadcrumbs changed the verdict: %v vs %v", plain.Cause, pruned.Cause)
	}
	if pruned.Report.Stats.Attempts > plain.Report.Stats.Attempts {
		t.Errorf("breadcrumbs increased effort: %d vs %d",
			pruned.Report.Stats.Attempts, plain.Report.Stats.Attempts)
	}
}

func TestRunCleanExit(t *testing.T) {
	p := res.MustAssemble("func main:\n const r1, 1\n assert r1\n halt")
	d, err := res.Run(p, res.RunConfig{})
	if err != nil || d != nil {
		t.Fatalf("clean program: %v %v", d, err)
	}
}

func TestReplayFacade(t *testing.T) {
	bug := workload.UseAfterFree()
	p := bug.Program()
	d, _, err := bug.FindFailure(4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := res.NewAnalyzer(p, res.WithMaxDepth(10)).Analyze(context.Background(), d)
	if err != nil || r.Synthesized == nil {
		t.Fatalf("analyze: %v %v", r, err)
	}
	rr, err := res.Replay(p, r.Synthesized, d)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Divergence != nil || !rr.Matches {
		t.Errorf("facade replay: div=%v matches=%v", rr.Divergence, rr.Matches)
	}
}
