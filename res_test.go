package res_test

import (
	"context"
	"testing"
	"time"

	"res"
	"res/internal/rootcause"
	"res/internal/workload"
)

// TestSection4ConcurrencyBugs reproduces the paper's evaluation (§4):
// three synthetic concurrency bugs whose root causes are data races or
// atomicity violations. RES must identify the correct root cause in well
// under a minute, with no false positives (it never reports a suffix that
// does not reproduce the failure, and never blames a location not
// involved in the bug).
func TestSection4ConcurrencyBugs(t *testing.T) {
	for _, bug := range workload.ConcurrencyBugs() {
		bug := bug
		t.Run(bug.Name, func(t *testing.T) {
			p := bug.Program()
			d, _, err := bug.FindFailure(50)
			if err != nil {
				t.Fatalf("failure never manifested: %v", err)
			}
			start := time.Now()
			r, err := res.NewAnalyzer(p, res.WithMaxDepth(16), res.WithMaxNodes(4000)).Analyze(context.Background(), d)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			elapsed := time.Since(start)
			if r.Cause == nil {
				t.Fatalf("no root cause; report %+v", r.Report.Stats)
			}
			// The paper classifies these root causes as "data races or
			// atomicity violations"; either is correct, but the blamed
			// address must be the actually racy location — blaming
			// anything else would be the false positive the paper rules
			// out.
			if r.Cause.Kind != rootcause.DataRace && r.Cause.Kind != rootcause.AtomicityViolation {
				t.Errorf("cause = %v, want a race-family cause (full: %s)", r.Cause.Kind, r.Cause)
			}
			racy, err := p.GlobalAddr(bug.RacyGlobal)
			if err != nil {
				t.Fatalf("racy global: %v", err)
			}
			if r.Cause.Addr != racy {
				t.Errorf("blamed address %d, want %s at %d (full: %s)", r.Cause.Addr, bug.RacyGlobal, racy, r.Cause)
			}
			// No false positives: the supporting suffix must replay to the
			// exact coredump.
			if r.Replay == nil || !r.Replay.Matches {
				t.Errorf("supporting suffix does not reproduce the dump")
			}
			// "In all the cases RES was able to identify the correct root
			// cause in less than 1 minute."
			if elapsed > time.Minute {
				t.Errorf("analysis took %v, paper bound is 1 minute", elapsed)
			}
			if r.HardwareSuspect {
				t.Error("software bug misclassified as hardware error")
			}
		})
	}
}

// TestFigure1Overflow reproduces Figure 1: a buffer overflow whose crash
// happens later, through a corrupted pointer. RES must (a) discard the
// non-overflowing predecessor (x==2 path), and (b) pinpoint the overflow
// store as the root cause via checked replay.
func TestFigure1Overflow(t *testing.T) {
	bug := workload.Fig1()
	p := bug.Program()
	d, _, err := bug.FindFailure(4)
	if err != nil {
		t.Fatalf("Figure 1 crash did not manifest: %v", err)
	}
	// The dump must show the paper's state: x == 1, y == 10.
	x, _ := p.GlobalAddr("x")
	y, _ := p.GlobalAddr("y")
	if d.Mem.Load(x) != 1 || d.Mem.Load(y) != 10 {
		t.Fatalf("dump state x=%d y=%d, want 1, 10", d.Mem.Load(x), d.Mem.Load(y))
	}
	r, err := res.NewAnalyzer(p, res.WithMaxDepth(12), res.WithMaxNodes(4000)).Analyze(context.Background(), d)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if r.Cause == nil {
		t.Fatalf("no root cause; stats %+v", r.Report.Stats)
	}
	if r.Cause.Kind != rootcause.BufferOverflow {
		t.Fatalf("cause = %s, want buffer-overflow", r.Cause)
	}
	// The blamed pc must be the overflowing store inside pred1.
	pred1Store := -1
	for pc := range p.Code {
		if p.Code[pc].String() == "store r7, r8, 0" {
			pred1Store = pc
			break
		}
	}
	if pred1Store < 0 {
		t.Fatal("cannot locate the overflow store in the program")
	}
	if len(r.Cause.PCs) != 1 || r.Cause.PCs[0] != pred1Store {
		t.Errorf("blamed pcs %v, want [%d]", r.Cause.PCs, pred1Store)
	}
	// The suffix must traverse pred1, never pred2.
	sawPred2 := false
	for _, s := range r.Synthesized.Node.Steps() {
		blk := p.Block(s.Block)
		for pc := blk.Start; pc < blk.End; pc++ {
			if p.Code[pc].String() == "const r9, 2" {
				sawPred2 = true
			}
		}
	}
	if sawPred2 {
		t.Error("suffix traverses the infeasible pred2 path")
	}
}

// TestExploitabilityClassification checks the §3.1 taint verdicts: an
// attacker-controlled overflow is exploitable, a constant null crash is
// not.
func TestExploitabilityClassification(t *testing.T) {
	tainted := workload.TaintedOverflow()
	d, _, err := tainted.FindFailure(4)
	if err != nil {
		t.Fatalf("tainted overflow: %v", err)
	}
	r, err := res.NewAnalyzer(tainted.Program(), res.WithMaxDepth(8)).Analyze(context.Background(), d)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if r.Exploitability == nil || !r.Exploitability.Exploitable {
		t.Errorf("tainted overflow not classified exploitable: %+v", r.Exploitability)
	}

	benign := workload.UntaintedCrash()
	d2, _, err := benign.FindFailure(4)
	if err != nil {
		t.Fatalf("untainted crash: %v", err)
	}
	r2, err := res.NewAnalyzer(benign.Program(), res.WithMaxDepth(8)).Analyze(context.Background(), d2)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if r2.Exploitability != nil && r2.Exploitability.Exploitable {
		t.Errorf("constant crash misclassified exploitable: %+v", r2.Exploitability)
	}
}

// TestHashConstructReexecution checks the §6 workaround: when the hash
// input is still in memory, RES re-executes the non-invertible hash
// forward over the concrete value instead of inverting it.
func TestHashConstructReexecution(t *testing.T) {
	bug := workload.HashConstruct(true)
	p := bug.Program()
	d, _, err := bug.FindFailure(4)
	if err != nil {
		t.Fatalf("hash bug: %v", err)
	}
	r, err := res.NewAnalyzer(p, res.WithMaxDepth(8)).Analyze(context.Background(), d)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if r.Cause == nil {
		t.Fatalf("no cause; stats %+v", r.Report.Stats)
	}
	// The suffix must extend past the hash computation (the spilled input
	// makes the hash block's compatibility check concrete).
	if r.Report.Stats.MaxDepth < 2 {
		t.Errorf("search did not cross the hash construct; stats %+v", r.Report.Stats)
	}
	if r.Replay == nil || !r.Replay.Matches {
		t.Error("suffix does not reproduce the dump")
	}
}

// TestLongExecutionIndependence is the smoke-test version of E3: the cost
// of RES analysis must not grow with the benign prefix length.
func TestLongExecutionIndependence(t *testing.T) {
	attempts := make(map[int]int)
	for _, n := range []int{100, 10000} {
		bug := workload.LongPrefix(n)
		d, _, err := bug.FindFailure(2)
		if err != nil {
			t.Fatalf("long-prefix %d: %v", n, err)
		}
		if d.Steps < uint64(n/2) {
			t.Fatalf("prefix too short: %d blocks for n=%d", d.Steps, n)
		}
		r, err := res.NewAnalyzer(bug.Program(), res.WithMaxDepth(8), res.WithMaxNodes(2000)).Analyze(context.Background(), d)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		if r.Cause == nil {
			t.Fatalf("no cause for n=%d; stats %+v", n, r.Report.Stats)
		}
		attempts[n] = r.Report.Stats.Attempts
	}
	// The search effort must be identical regardless of execution length.
	if attempts[100] != attempts[10000] {
		t.Errorf("search effort varies with execution length: %v", attempts)
	}
}
