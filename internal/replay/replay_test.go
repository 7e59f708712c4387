package replay_test

import (
	"testing"

	"res/internal/asm"
	"res/internal/core"
	"res/internal/coredump"
	"res/internal/prog"
	"res/internal/replay"
	"res/internal/vm"
	"res/internal/workload"
)

// synthesize runs a program to failure and synthesizes its deepest suffix.
func synthesize(t testing.TB, src string, cfg vm.Config, maxDepth int) (*prog.Program, *coredump.Dump, *core.Synthesized) {
	t.Helper()
	p := asm.MustAssemble(src)
	v, err := vm.New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := v.Run()
	if err != nil || d == nil {
		t.Fatalf("no dump: %v %v", d, err)
	}
	eng := core.New(p, core.Options{MaxDepth: maxDepth})
	rep, err := eng.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Suffixes) == 0 {
		t.Fatalf("no suffixes; stats %+v", rep.Stats)
	}
	var deepest *core.Node
	for _, n := range rep.Suffixes {
		if deepest == nil || n.Depth > deepest.Depth {
			deepest = n
		}
	}
	syn, err := eng.Concretize(deepest, d)
	if err != nil {
		t.Fatal(err)
	}
	return p, d, syn
}

const loopCrashSrc = `
.global g 1
func main:
    const r1, 3
loop:
    loadg r2, &g
    addi r2, r2, 2
    storeg r2, &g
    addi r1, r1, -1
    br r1, loop, done
done:
    loadg r3, &g
    addi r4, r3, -6
    assert r4
    halt
`

func TestReplayReproducesDump(t *testing.T) {
	p, d, syn := synthesize(t, loopCrashSrc, vm.Config{}, 8)
	rr, err := replay.Run(p, syn, d, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Divergence != nil {
		t.Fatalf("divergence: %v", rr.Divergence)
	}
	if !rr.Matches {
		t.Fatalf("mismatch: fault %v vs %v, memdiff %v", rr.Fault, d.Fault, rr.MemDiff)
	}
}

func TestReplayIsDeterministic(t *testing.T) {
	p, d, syn := synthesize(t, loopCrashSrc, vm.Config{}, 8)
	for i := 0; i < 3; i++ {
		rr, err := replay.Run(p, syn, d, replay.Config{})
		if err != nil || !rr.Matches {
			t.Fatalf("replay %d: err=%v matches=%v", i, err, rr.Matches)
		}
	}
}

func TestReplayDetectsCorruptedPreImage(t *testing.T) {
	p, d, syn := synthesize(t, loopCrashSrc, vm.Config{}, 8)
	// Corrupt the pre-image: the replay must diverge or mismatch, never
	// silently "match".
	addr, _ := p.GlobalAddr("g")
	img := syn.PreMem.Clone()
	img.Store(addr, 12345)
	syn.PreMem = img
	rr, err := replay.Run(p, syn, d, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Matches {
		t.Fatal("corrupted pre-image still matches")
	}
}

func TestDebuggerStepAndInspect(t *testing.T) {
	p, d, syn := synthesize(t, loopCrashSrc, vm.Config{}, 8)
	dbg, err := replay.NewDebugger(p, syn, d)
	if err != nil {
		t.Fatal(err)
	}
	if dbg.Pos() != 0 || dbg.Done() {
		t.Fatalf("fresh debugger at pos %d done=%v", dbg.Pos(), dbg.Done())
	}
	s := dbg.Step()
	if s.Reason != replay.StopStep && s.Reason != replay.StopFault {
		t.Fatalf("first step: %v", s)
	}
	if dbg.Pos() != 1 {
		t.Errorf("pos = %d, want 1", dbg.Pos())
	}
	if _, err := dbg.Regs(0); err != nil {
		t.Errorf("Regs: %v", err)
	}
	addr, _ := p.GlobalAddr("g")
	if _, err := dbg.ReadMem(addr); err != nil {
		t.Errorf("ReadMem: %v", err)
	}
}

func TestDebuggerRunToFault(t *testing.T) {
	p, d, syn := synthesize(t, loopCrashSrc, vm.Config{}, 8)
	dbg, err := replay.NewDebugger(p, syn, d)
	if err != nil {
		t.Fatal(err)
	}
	s := dbg.RunToFault()
	if s.Reason != replay.StopFault {
		t.Fatalf("stop = %v, want fault", s)
	}
	if s.Fault.Kind != d.Fault.Kind || s.Fault.PC != d.Fault.PC {
		t.Errorf("fault %v, want %v", s.Fault, d.Fault)
	}
}

func TestDebuggerWatchpoint(t *testing.T) {
	p, d, syn := synthesize(t, loopCrashSrc, vm.Config{}, 8)
	if len(syn.Suffix.Steps) < 2 {
		t.Skip("suffix too short to exercise a watchpoint")
	}
	dbg, err := replay.NewDebugger(p, syn, d)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := p.GlobalAddr("g")
	dbg.Watch(addr)
	s := dbg.Continue()
	if s.Reason != replay.StopWatchpoint {
		t.Fatalf("stop = %v, want watchpoint", s)
	}
	if s.WatchAddr != addr {
		t.Errorf("watch addr %d, want %d", s.WatchAddr, addr)
	}
}

func TestDebuggerBreakpoint(t *testing.T) {
	p, d, syn := synthesize(t, loopCrashSrc, vm.Config{}, 8)
	dbg, err := replay.NewDebugger(p, syn, d)
	if err != nil {
		t.Fatal(err)
	}
	// Break on the assert instruction.
	dbg.Break(d.Fault.PC)
	s := dbg.Continue()
	if s.Reason != replay.StopBreakpoint {
		t.Fatalf("stop = %v, want breakpoint", s)
	}
	// Stepping past the breakpoint block and continuing reaches the fault.
	if s = dbg.Step(); s.Reason == replay.StopStep {
		s = dbg.Continue()
	}
	if s.Reason != replay.StopFault {
		t.Fatalf("after breakpoint: %v, want fault", s)
	}
}

func TestDebuggerReverseStep(t *testing.T) {
	p, d, syn := synthesize(t, loopCrashSrc, vm.Config{}, 8)
	if len(syn.Suffix.Steps) < 3 {
		t.Skip("suffix too short")
	}
	dbg, err := replay.NewDebugger(p, syn, d)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := p.GlobalAddr("g")

	// Record g's value at every position going forward.
	vals := []int64{}
	for !dbg.Done() {
		v, _ := dbg.ReadMem(addr)
		vals = append(vals, v)
		dbg.Step()
	}
	// Step backward and verify the time-travel view matches.
	for pos := dbg.Pos() - 1; pos > 0; pos-- {
		if _, err := dbg.ReverseStep(); err != nil {
			t.Fatalf("ReverseStep: %v", err)
		}
		if dbg.Pos() != pos {
			t.Fatalf("pos = %d, want %d", dbg.Pos(), pos)
		}
		v, _ := dbg.ReadMem(addr)
		if v != vals[pos] {
			t.Errorf("reverse to %d: g = %d, want %d", pos, v, vals[pos])
		}
	}
}

func TestDebuggerRestart(t *testing.T) {
	p, d, syn := synthesize(t, loopCrashSrc, vm.Config{}, 8)
	dbg, err := replay.NewDebugger(p, syn, d)
	if err != nil {
		t.Fatal(err)
	}
	dbg.RunToFault()
	if err := dbg.Restart(); err != nil {
		t.Fatal(err)
	}
	if dbg.Pos() != 0 || dbg.Done() {
		t.Errorf("after restart pos=%d done=%v", dbg.Pos(), dbg.Done())
	}
	// Deterministic again.
	if s := dbg.RunToFault(); s.Reason != replay.StopFault {
		t.Errorf("second run: %v", s)
	}
}

func TestReplayConcurrencySuffix(t *testing.T) {
	// A multithreaded suffix replays to the same dump: thread schedule
	// reconstruction is part of the contract.
	bug := workload.AtomViolation()
	p := bug.Program()
	d, _, err := bug.FindFailure(50)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(p, core.Options{MaxDepth: 10, MaxNodes: 2000})
	rep, err := eng.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	matched := false
	for _, n := range rep.Suffixes {
		syn, err := eng.Concretize(n, d)
		if err != nil {
			continue
		}
		rr, err := replay.Run(p, syn, d, replay.Config{})
		if err == nil && rr.Matches {
			matched = true
			break
		}
	}
	if !matched {
		t.Fatalf("no suffix replayed to the dump; %d suffixes, stats %+v", len(rep.Suffixes), rep.Stats)
	}
}
