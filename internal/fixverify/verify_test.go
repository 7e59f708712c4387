package fixverify_test

import (
	"context"
	"strings"
	"testing"

	"res"
	"res/internal/core"
	"res/internal/coredump"
	"res/internal/fixverify"
	"res/internal/isa"
	"res/internal/mem"
	"res/internal/trace"
)

// buggySrc fails deterministically: x is 5 but the check asserts it is 4.
// The failure site (site:) is a separate region from the buggy comparison
// (check:), so patches to check leave the assert in place and exercise
// the residual-constraint judgment.
const buggySrc = `
.global x 1
func main:
    const r1, 5
    storeg r1, &x
check:
    loadg r2, &x
    const r3, 4
    cmpeq r4, r2, r3
site:
    assert r4
    halt
`

// analyzeBuggy runs the buggy program to its failure and analyzes the
// dump, returning everything a fix verification needs.
func analyzeBuggy(t *testing.T) (*res.Result, *res.Dump) {
	t.Helper()
	p := res.MustAssemble(buggySrc)
	d, err := res.Run(p, res.RunConfig{MaxSteps: 10000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d == nil {
		t.Fatalf("buggy program did not fail")
	}
	r, err := res.NewAnalyzer(p).Analyze(context.Background(), d)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if r.Cause == nil || r.Synthesized == nil {
		t.Fatalf("analysis found no cause/suffix: %+v", r)
	}
	return r, d
}

func mustParse(t *testing.T, text string) *res.FixPatch {
	t.Helper()
	p, err := res.ParsePatch(text)
	if err != nil {
		t.Fatalf("ParsePatch: %v", err)
	}
	return p
}

func TestVerifyGoodPatchFixed(t *testing.T) {
	r, d := analyzeBuggy(t)
	patch := mustParse(t, `replace check
    loadg r2, &x
    const r3, 5
    cmpeq r4, r2, r3
end
`)
	v, err := res.VerifyFix(buggySrc, patch, r, d)
	if err != nil {
		t.Fatalf("VerifyFix: %v", err)
	}
	if v.Verdict != res.FixVerdictFixed {
		t.Fatalf("verdict = %s (%s); want fixed", v.Verdict, v.Reason)
	}
	if v.ResidualSat {
		t.Fatalf("good patch left the residual constraint satisfiable")
	}
	if !v.Contacted {
		t.Fatalf("patched code never executed")
	}
}

func TestVerifyBadPatchNotFixed(t *testing.T) {
	r, d := analyzeBuggy(t)
	// Still compares against the wrong constant: the assert still fires.
	patch := mustParse(t, `replace check
    loadg r2, &x
    const r3, 3
    cmpeq r4, r2, r3
end
`)
	v, err := res.VerifyFix(buggySrc, patch, r, d)
	if err != nil {
		t.Fatalf("VerifyFix: %v", err)
	}
	if v.Verdict != res.FixVerdictNotFixed {
		t.Fatalf("verdict = %s (%s); want not-fixed", v.Verdict, v.Reason)
	}
	if !v.ResidualSat {
		t.Fatalf("reproduced failure must report a satisfiable residual")
	}
}

func TestVerifyIdentityPatchNotFixed(t *testing.T) {
	r, d := analyzeBuggy(t)
	v, err := res.VerifyFix(buggySrc, &res.FixPatch{}, r, d)
	if err != nil {
		t.Fatalf("VerifyFix: %v", err)
	}
	if v.Verdict != res.FixVerdictNotFixed {
		t.Fatalf("verdict = %s (%s); want not-fixed for the identity patch", v.Verdict, v.Reason)
	}
	if !strings.Contains(v.Reason, "identity") {
		t.Fatalf("identity verdict reason should say so, got %q", v.Reason)
	}
}

func TestVerifyRemovedFailureSiteFixed(t *testing.T) {
	r, d := analyzeBuggy(t)
	patch := mustParse(t, `replace site
    halt
end
`)
	v, err := res.VerifyFix(buggySrc, patch, r, d)
	if err != nil {
		t.Fatalf("VerifyFix: %v", err)
	}
	if v.Verdict != res.FixVerdictFixed {
		t.Fatalf("verdict = %s (%s); want fixed when the failure site is removed", v.Verdict, v.Reason)
	}
	if !strings.Contains(v.Residual, "removed") {
		t.Fatalf("residual should record the removed site, got %q", v.Residual)
	}
}

// divergeSrc is buggySrc with yields between the regions, so each region
// is its own basic block and a schedule can diverge before reaching a
// patched block.
const divergeSrc = `
.global x 1
func main:
    const r1, 5
    storeg r1, &x
    yield
check:
    loadg r2, &x
    const r3, 4
    cmpeq r4, r2, r3
    yield
site:
    assert r4
    halt
`

// wholeRunSyn hand-builds a synthesized suffix spanning divergeSrc's
// entire (deterministic, single-threaded) execution from pc 0: the
// full-length window an unbounded backward search would produce.
func wholeRunSyn(t *testing.T, p *res.Program) *core.Synthesized {
	t.Helper()
	var steps []trace.Step
	for b := 0; b < p.NumBlocks(); b++ {
		steps = append(steps, trace.Step{Tid: 0, Block: b})
	}
	return &core.Synthesized{
		Suffix: &trace.Suffix{
			Steps:    steps,
			EndPC:    7, // the assert
			StartPCs: map[int]int{0: 0},
		},
		PreMem:    mem.NewSparse(p.Layout.MemSize),
		PreRegs:   map[int][isa.NumRegs]int64{0: {}},
		PreStates: map[int]coredump.ThreadState{0: coredump.ThreadRunnable},
		PreLocks:  map[uint32]int{},
	}
}

func TestVerifyDivergenceBeforeAnchorInconclusive(t *testing.T) {
	p := res.MustAssemble(divergeSrc)
	if p.NumBlocks() < 3 {
		t.Fatalf("divergeSrc has %d blocks; the test needs at least 3", p.NumBlocks())
	}
	d, err := res.Run(p, res.RunConfig{MaxSteps: 10000})
	if err != nil || d == nil {
		t.Fatalf("divergeSrc did not fail: %v", err)
	}
	syn := wholeRunSyn(t, p)
	// Sanity: the honest whole-run schedule replays to the fault.
	if v, err := fixverify.Verify(divergeSrc, &fixverify.Patch{}, syn, d); err != nil || v.Verdict != res.FixVerdictNotFixed {
		t.Fatalf("whole-run schedule does not reproduce: %+v, %v", v, err)
	}
	// Corrupt the schedule so the replay diverges at step 0 — before the
	// patched site region runs: the first step claims the check block
	// while the thread still sits at the program entry.
	syn.Suffix.Steps[0].Block = 1

	patch := mustParse(t, `replace site
    const r8, 1
    assert r8
    halt
end
`)
	v, err := fixverify.Verify(divergeSrc, patch, syn, d)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if v.Verdict != res.FixVerdictInconclusive {
		t.Fatalf("verdict = %s (%s); want inconclusive on pre-anchor divergence", v.Verdict, v.Reason)
	}
	if v.Verdict == res.FixVerdictFixed {
		t.Fatalf("pre-anchor divergence must never report fixed")
	}
	if !strings.Contains(v.Reason, "diverged") {
		t.Fatalf("reason should mention the divergence, got %q", v.Reason)
	}
}

func TestVerifySuffixStartInsidePatchInconclusive(t *testing.T) {
	r, d := analyzeBuggy(t)
	// Patch whichever region holds the suffix's starting pc; the window
	// then begins inside rewritten code and cannot anchor the replay.
	start := r.Synthesized.Suffix.StartPCs[d.Fault.Thread]
	label := "main"
	switch {
	case start >= 5:
		label = "site"
	case start >= 2:
		label = "check"
	}
	body := map[string]string{
		"main":  "    const r1, 5\n    storeg r1, &x",
		"check": "    loadg r2, &x\n    const r3, 4\n    cmpeq r4, r2, r3",
		"site":  "    assert r4\n    halt",
	}[label]
	patch := mustParse(t, "replace "+label+"\n"+body+"\nend\n")
	v, err := res.VerifyFix(buggySrc, patch, r, d)
	if err != nil {
		t.Fatalf("VerifyFix: %v", err)
	}
	if v.Verdict != res.FixVerdictInconclusive {
		t.Fatalf("verdict = %s (%s); want inconclusive when the window starts inside patched code", v.Verdict, v.Reason)
	}
}

func TestVerifyDeterministic(t *testing.T) {
	r, d := analyzeBuggy(t)
	patch := mustParse(t, `replace check
    loadg r2, &x
    const r3, 5
    cmpeq r4, r2, r3
end
`)
	v1, err := res.VerifyFix(buggySrc, patch, r, d)
	if err != nil {
		t.Fatalf("VerifyFix: %v", err)
	}
	v2, err := res.VerifyFix(buggySrc, patch, r, d)
	if err != nil {
		t.Fatalf("VerifyFix: %v", err)
	}
	if *v1 != *v2 {
		t.Fatalf("verdicts differ across identical runs:\n%+v\n%+v", v1, v2)
	}
}
