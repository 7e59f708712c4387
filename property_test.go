package res_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"res"
	"res/internal/coredump"
	"res/internal/rootcause"
	"res/internal/workload"
)

// genProgram builds a random single-threaded program: a sequence of
// arithmetic over globals and inputs, sprinkled with branches, ending in
// an assert that is engineered to fail. The generator is the fuzzing half
// of the property test below.
func genProgram(rng *rand.Rand) (string, map[int64][]int64) {
	nGlobals := 2 + rng.Intn(3)
	src := ""
	for g := 0; g < nGlobals; g++ {
		src += fmt.Sprintf(".global g%d 1\n", g)
	}
	src += "func main:\n"
	var inputs []int64
	nBlocks := 2 + rng.Intn(5)
	reg := func() int { return 1 + rng.Intn(6) } // r1..r6
	for b := 0; b < nBlocks; b++ {
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			switch rng.Intn(6) {
			case 0:
				src += fmt.Sprintf("    const r%d, %d\n", reg(), rng.Intn(100)-50)
			case 1:
				src += fmt.Sprintf("    addi r%d, r%d, %d\n", reg(), reg(), rng.Intn(20)-10)
			case 2:
				src += fmt.Sprintf("    add r%d, r%d, r%d\n", reg(), reg(), reg())
			case 3:
				src += fmt.Sprintf("    xor r%d, r%d, r%d\n", reg(), reg(), reg())
			case 4:
				g := rng.Intn(nGlobals)
				if rng.Intn(2) == 0 {
					src += fmt.Sprintf("    storeg r%d, &g%d\n", reg(), g)
				} else {
					src += fmt.Sprintf("    loadg r%d, &g%d\n", reg(), g)
				}
			case 5:
				v := int64(rng.Intn(40) - 20)
				inputs = append(inputs, v)
				src += fmt.Sprintf("    input r%d, 0\n", reg())
			}
		}
		// A branch whose both arms converge at the next label keeps the
		// CFG interesting without risking non-termination.
		src += fmt.Sprintf("    cmplt r7, r%d, r%d\n", reg(), reg())
		src += fmt.Sprintf("    br r7, l%d, l%d\n", b, b)
		src += fmt.Sprintf("l%d:\n", b)
	}
	src += "    const r8, 0\n    assert r8\n    halt\n"
	return src, map[int64][]int64{0: inputs}
}

// TestPropertyRandomProgramsReplayExactly is the library's core soundness
// property, fuzz-tested: for arbitrary programs that crash, every suffix
// RES synthesizes must replay to the exact coredump (fault, memory and
// registers) — the "no false positives" contract of the paper.
func TestPropertyRandomProgramsReplayExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(20130501)) // the HotOS'13 date
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		src, inputs := genProgram(rng)
		p, err := res.Assemble(src)
		if err != nil {
			t.Fatalf("trial %d: generator produced bad program: %v\n%s", trial, err, src)
		}
		d, err := res.Run(p, res.RunConfig{Inputs: inputs, MaxSteps: 100000})
		if err != nil {
			t.Fatalf("trial %d: run: %v", trial, err)
		}
		if d == nil || d.Fault.Kind != coredump.FaultAssert {
			t.Fatalf("trial %d: expected the engineered assert failure, got %v", trial, d)
		}
		r, err := res.NewAnalyzer(p, res.WithMaxDepth(10), res.WithMaxNodes(600)).Analyze(context.Background(), d)
		if err != nil {
			t.Fatalf("trial %d: analyze: %v\n%s", trial, err, src)
		}
		if r.Cause == nil {
			t.Fatalf("trial %d: no cause found; stats %+v\n%s", trial, r.Report.Stats, src)
		}
		if r.Replay == nil || !r.Replay.Matches {
			t.Fatalf("trial %d: suffix does not reproduce the dump\n%s", trial, src)
		}
		if r.HardwareSuspect {
			t.Fatalf("trial %d: software crash flagged as hardware", trial)
		}
	}
}

// TestUseAfterFreeEndToEnd: the UAF is silent in production (the crash is
// a downstream assert); checked replay of the suffix pinpoints the stale
// access.
func TestUseAfterFreeEndToEnd(t *testing.T) {
	bug := workload.UseAfterFree()
	p := bug.Program()
	d, _, err := bug.FindFailure(4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := res.NewAnalyzer(p, res.WithMaxDepth(10)).Analyze(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cause == nil || r.Cause.Kind != rootcause.UseAfterFree {
		t.Fatalf("cause = %v, want use-after-free", r.Cause)
	}
	// The blamed pc is the stale store, not the assert.
	stale := -1
	for pc := range p.Code {
		if p.Code[pc].String() == "store r2, r3, 0" {
			stale = pc
		}
	}
	if len(r.Cause.PCs) != 1 || r.Cause.PCs[0] != stale {
		t.Errorf("blamed %v, want [%d]", r.Cause.PCs, stale)
	}
}

// TestDeadlockEndToEnd: a deadlock dump (no faulting thread) is analyzed
// via the thread-less base case and classified as a deadlock.
func TestDeadlockEndToEnd(t *testing.T) {
	bug := workload.DeadlockBug()
	p := bug.Program()
	d, _, err := bug.FindFailure(60)
	if err != nil {
		t.Fatal(err)
	}
	if d.Fault.Thread >= 0 {
		t.Fatalf("deadlock dump has a faulting thread: %v", d.Fault)
	}
	// Both threads must be blocked in the dump.
	blocked := 0
	for _, th := range d.Threads {
		if th.State == coredump.ThreadBlocked {
			blocked++
		}
	}
	if blocked != 2 {
		t.Fatalf("blocked threads = %d, want 2", blocked)
	}
	r, err := res.NewAnalyzer(p, res.WithMaxDepth(12), res.WithMaxNodes(3000)).Analyze(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cause == nil {
		t.Fatalf("no cause; stats %+v", r.Report.Stats)
	}
	if r.Cause.Kind != rootcause.Deadlock && r.Cause.Kind != rootcause.DataRace && r.Cause.Kind != rootcause.AtomicityViolation {
		t.Errorf("cause = %v, want deadlock or a race-family diagnosis", r.Cause)
	}
	if r.HardwareSuspect {
		t.Error("deadlock flagged as hardware error")
	}
}
