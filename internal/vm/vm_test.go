package vm

import (
	"strings"
	"testing"

	"res/internal/asm"
	"res/internal/coredump"
	"res/internal/isa"
	"res/internal/trace"
)

func run(t *testing.T, src string, cfg Config) (*VM, *coredump.Dump) {
	t.Helper()
	p := asm.MustAssemble(src)
	v, err := New(p, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d, err := v.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return v, d
}

func TestArithmeticAndGlobals(t *testing.T) {
	src := `
.global x 1
.global y 1
func main:
    const r1, 6
    const r2, 7
    mul r3, r1, r2
    storeg r3, &x
    loadg r4, &x
    addi r4, r4, -2
    storeg r4, &y
    halt
`
	v, d := run(t, src, Config{})
	if d != nil {
		t.Fatalf("unexpected fault: %v", d.Fault)
	}
	x, _ := v.P.GlobalAddr("x")
	y, _ := v.P.GlobalAddr("y")
	if got := v.Mem.Load(x); got != 42 {
		t.Errorf("x = %d, want 42", got)
	}
	if got := v.Mem.Load(y); got != 40 {
		t.Errorf("y = %d, want 40", got)
	}
}

func TestLoopAndBranch(t *testing.T) {
	src := `
.global sum 1
func main:
    const r1, 10
    const r2, 0
loop:
    add r2, r2, r1
    addi r1, r1, -1
    br r1, loop, done
done:
    storeg r2, &sum
    halt
`
	v, d := run(t, src, Config{})
	if d != nil {
		t.Fatalf("fault: %v", d.Fault)
	}
	addr, _ := v.P.GlobalAddr("sum")
	if got := v.Mem.Load(addr); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestCallRet(t *testing.T) {
	src := `
.global out 1
func main:
    const r0, 5
    call double
    storeg r0, &out
    halt
func double:
    add r0, r0, r0
    ret
`
	v, d := run(t, src, Config{})
	if d != nil {
		t.Fatalf("fault: %v", d.Fault)
	}
	addr, _ := v.P.GlobalAddr("out")
	if got := v.Mem.Load(addr); got != 10 {
		t.Errorf("out = %d, want 10", got)
	}
	// SP restored.
	if sp := v.Threads[0].Regs[isa.SP]; sp != int64(v.P.Layout.StackTop(0)) {
		t.Errorf("sp = %d, want %d", sp, v.P.Layout.StackTop(0))
	}
}

func TestRecursion(t *testing.T) {
	// fact(6) via recursion, result in r0.
	src := `
.global out 1
func main:
    const r0, 6
    call fact
    storeg r0, &out
    halt
func fact:
    const r2, 1
    cmple r3, r0, r2
    br r3, base, rec
rec:
    mov r4, r0
    addi sp, sp, -1
    store sp, r4, 0
    addi r0, r0, -1
    call fact
    load r4, sp, 0
    addi sp, sp, 1
    mul r0, r0, r4
    ret
base:
    const r0, 1
    ret
`
	v, d := run(t, src, Config{})
	if d != nil {
		t.Fatalf("fault: %v", d.Fault)
	}
	addr, _ := v.P.GlobalAddr("out")
	if got := v.Mem.Load(addr); got != 720 {
		t.Errorf("fact(6) = %d, want 720", got)
	}
}

func TestNullDerefFault(t *testing.T) {
	src := `
func main:
    const r1, 0
    load r2, r1, 0
    halt
`
	_, d := run(t, src, Config{})
	if d == nil || d.Fault.Kind != coredump.FaultNullDeref {
		t.Fatalf("dump = %+v, want null-deref", d)
	}
	if d.Fault.PC != 1 || d.Fault.Thread != 0 {
		t.Errorf("fault = %v", d.Fault)
	}
}

func TestDivByZeroFault(t *testing.T) {
	src := `
func main:
    const r1, 9
    const r2, 0
    div r3, r1, r2
    halt
`
	_, d := run(t, src, Config{})
	if d == nil || d.Fault.Kind != coredump.FaultDivByZero {
		t.Fatalf("want div-by-zero, got %+v", d)
	}
}

func TestAssertFault(t *testing.T) {
	src := `
.global g 1
func main:
    loadg r1, &g
    assert r1
    halt
`
	_, d := run(t, src, Config{})
	if d == nil || d.Fault.Kind != coredump.FaultAssert {
		t.Fatalf("want assert fault, got %+v", d)
	}
}

func TestInputsAndOutputs(t *testing.T) {
	src := `
func main:
    input r1, 0
    input r2, 0
    add r3, r1, r2
    output r3, 99
    halt
`
	v, d := run(t, src, Config{Inputs: map[int64][]int64{0: {11, 31}}})
	if d != nil {
		t.Fatalf("fault: %v", d.Fault)
	}
	outs := v.Outputs()
	if len(outs) != 1 || outs[0].Value != 42 || outs[0].Tag != 99 {
		t.Errorf("outputs = %+v", outs)
	}
}

func TestInputExhaustionReturnsZero(t *testing.T) {
	src := `
func main:
    input r1, 5
    assert r1
    halt
`
	_, d := run(t, src, Config{})
	if d == nil || d.Fault.Kind != coredump.FaultAssert {
		t.Fatalf("want assert on zero input, got %+v", d)
	}
}

func TestHeapAllocFree(t *testing.T) {
	src := `
.global p 1
func main:
    const r1, 4
    alloc r2, r1
    storeg r2, &p
    const r3, 77
    store r2, r3, 2
    load r4, r2, 2
    assert r4
    free r2
    halt
`
	v, d := run(t, src, Config{})
	if d != nil {
		t.Fatalf("fault: %v", d.Fault)
	}
	h := v.heap
	if len(h) != 1 || !h[0].Freed || h[0].Size != 4 {
		t.Errorf("heap = %+v", h)
	}
}

func TestDoubleFree(t *testing.T) {
	src := `
func main:
    const r1, 2
    alloc r2, r1
    free r2
    free r2
    halt
`
	_, d := run(t, src, Config{})
	if d == nil || d.Fault.Kind != coredump.FaultDoubleFree {
		t.Fatalf("want double-free, got %+v", d)
	}
}

func TestUseAfterFreeCheckedMode(t *testing.T) {
	src := `
func main:
    const r1, 2
    alloc r2, r1
    free r2
    load r3, r2, 0
    halt
`
	_, d := run(t, src, Config{CheckHeap: true})
	if d == nil || d.Fault.Kind != coredump.FaultUseAfterFree {
		t.Fatalf("want use-after-free, got %+v", d)
	}
	// Production mode: silent.
	_, d = run(t, src, Config{})
	if d != nil {
		t.Fatalf("production mode should not fault, got %v", d.Fault)
	}
}

func TestHeapOOBCheckedMode(t *testing.T) {
	src := `
func main:
    const r1, 2
    alloc r2, r1
    const r3, 5
    store r2, r3, 3
    halt
`
	_, d := run(t, src, Config{CheckHeap: true})
	if d == nil || d.Fault.Kind != coredump.FaultHeapOOB {
		t.Fatalf("want heap-oob, got %+v", d)
	}
	_, d = run(t, src, Config{})
	if d != nil {
		t.Fatalf("production mode should not fault, got %v", d.Fault)
	}
}

func TestSpawnAndJoinViaFlag(t *testing.T) {
	src := `
.global flag 1
.global val 1
func main:
    const r2, 21
    spawn worker, r2
wait:
    loadg r1, &flag
    cmpeq r3, r1, r1
    br r1, done, wait
done:
    loadg r4, &val
    output r4, 1
    halt
func worker:
    add r1, r0, r0
    storeg r1, &val
    const r2, 1
    storeg r2, &flag
    halt
`
	v, d := run(t, src, Config{Seed: 7, PreemptPct: 30})
	if d != nil {
		t.Fatalf("fault: %v", d.Fault)
	}
	outs := v.Outputs()
	if len(outs) != 1 || outs[0].Value != 42 {
		t.Errorf("outputs = %+v", outs)
	}
}

func TestLockMutualExclusionAndDeadlock(t *testing.T) {
	// Two threads each lock m1 then m2 / m2 then m1: classic deadlock,
	// given a schedule that interleaves the first acquires.
	src := `
.global m1 1
.global m2 1
func main:
    const r1, 0
    spawn worker, r1
    const r2, &m1
    lock r2
    yield
    const r3, &m2
    lock r3
    unlock r3
    unlock r2
    halt
func worker:
    const r2, &m2
    lock r2
    yield
    const r3, &m1
    lock r3
    unlock r3
    unlock r2
    halt
`
	// Search seeds until the deadlock manifests (it needs the right
	// interleaving, like any real concurrency bug).
	found := false
	for seed := int64(0); seed < 50; seed++ {
		_, d := run(t, src, Config{Seed: seed, PreemptPct: 60})
		if d != nil && d.Fault.Kind == coredump.FaultDeadlock {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("deadlock never manifested across 50 seeds")
	}
}

func TestBadUnlock(t *testing.T) {
	src := `
.global m 1
func main:
    const r1, &m
    unlock r1
    halt
`
	_, d := run(t, src, Config{})
	if d == nil || d.Fault.Kind != coredump.FaultBadUnlock {
		t.Fatalf("want bad-unlock, got %+v", d)
	}
}

func TestRelockFault(t *testing.T) {
	src := `
.global m 1
func main:
    const r1, &m
    lock r1
    lock r1
    halt
`
	_, d := run(t, src, Config{})
	if d == nil || d.Fault.Kind != coredump.FaultRelock {
		t.Fatalf("want relock, got %+v", d)
	}
}

func TestBudgetFault(t *testing.T) {
	src := `
func main:
loop:
    jmp loop
`
	_, d := run(t, src, Config{MaxSteps: 100})
	if d == nil || d.Fault.Kind != coredump.FaultBudget {
		t.Fatalf("want budget fault, got %+v", d)
	}
	if d.Steps != 100 {
		t.Errorf("steps = %d, want 100", d.Steps)
	}
}

func TestStackOverflow(t *testing.T) {
	src := `
func main:
    call main
`
	// main ends with a terminator (call is last) — that is rejected by the
	// assembler, so use a jmp loop around the call instead.
	src = `
func main:
loop:
    call f
    jmp loop
func f:
    call f
    ret
`
	_, d := run(t, src, Config{})
	if d == nil || d.Fault.Kind != coredump.FaultStackOverflow {
		t.Fatalf("want stack overflow, got %+v", d)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	src := `
.global c 1
func main:
    const r1, 0
    spawn worker, r1
    spawn worker, r1
    const r2, 50
m:
    loadg r3, &c
    addi r3, r3, 1
    storeg r3, &c
    addi r2, r2, -1
    br r2, m, md
md:
    halt
func worker:
    const r2, 50
w:
    loadg r3, &c
    addi r3, r3, 1
    storeg r3, &c
    addi r2, r2, -1
    br r2, w, wd
wd:
    halt
`
	p := asm.MustAssemble(src)
	results := make([]int64, 2)
	for i := range results {
		v, err := New(p, Config{Seed: 99, PreemptPct: 50})
		if err != nil {
			t.Fatal(err)
		}
		if d, err := v.Run(); err != nil || d != nil {
			t.Fatalf("run %d: %v %v", i, err, d)
		}
		addr, _ := p.GlobalAddr("c")
		results[i] = v.Mem.Load(addr)
	}
	if results[0] != results[1] {
		t.Errorf("same seed diverged: %d vs %d", results[0], results[1])
	}
}

func TestLostUpdateRaceObservable(t *testing.T) {
	// The classic data race: unsynchronized read-modify-write from two
	// threads. With preemption between load and store, updates get lost.
	src := `
.global c 1
func main:
    const r1, 0
    spawn worker, r1
    const r2, 40
m:
    loadg r3, &c
    yield
    addi r3, r3, 1
    storeg r3, &c
    addi r2, r2, -1
    br r2, m, md
md:
    halt
func worker:
    const r2, 40
w:
    loadg r3, &c
    yield
    addi r3, r3, 1
    storeg r3, &c
    addi r2, r2, -1
    br r2, w, wd
wd:
    halt
`
	p := asm.MustAssemble(src)
	addr, _ := p.GlobalAddr("c")
	lost := false
	for seed := int64(0); seed < 30 && !lost; seed++ {
		v, _ := New(p, Config{Seed: seed, PreemptPct: 70})
		if d, err := v.Run(); err != nil || d != nil {
			t.Fatalf("unexpected failure: %v %v", err, d)
		}
		if v.Mem.Load(addr) < 80 {
			lost = true
		}
	}
	if !lost {
		t.Error("lost update never manifested across 30 seeds")
	}
}

func TestLBRRecording(t *testing.T) {
	src := `
func main:
    const r1, 3
loop:
    addi r1, r1, -1
    br r1, loop, done
done:
    halt
`
	p := asm.MustAssemble(src)
	v, _ := New(p, Config{})
	d, _ := v.Run()
	if d != nil {
		t.Fatalf("fault: %v", d.Fault)
	}
	// 3 branch records from the br (two taken, one fallthrough).
	dump := v.capture(coredump.Fault{})
	if len(dump.LBR) != 3 {
		t.Fatalf("LBR = %+v", dump.LBR)
	}
	if dump.LBR[0].To != 1 || dump.LBR[2].To != 3 {
		t.Errorf("LBR = %+v", dump.LBR)
	}
}

func TestLBRRingBounded(t *testing.T) {
	src := `
func main:
    const r1, 100
loop:
    addi r1, r1, -1
    br r1, loop, done
done:
    halt
`
	p := asm.MustAssemble(src)
	v, _ := New(p, Config{LBRSize: 8})
	if d, _ := v.Run(); d != nil {
		t.Fatalf("fault: %v", d.Fault)
	}
	dump := v.capture(coredump.Fault{})
	if len(dump.LBR) != 8 {
		t.Errorf("LBR len = %d, want 8", len(dump.LBR))
	}
}

// TestFollow forces a recorded schedule onto a fresh machine: it reaches
// the recorded failure at the last step, and it refuses a step whose
// thread is missing, stands at another block, or blocks on a lock.
func TestFollow(t *testing.T) {
	src := `
.global m 1
func main:
    const r1, 0
    spawn worker, r1
    const r2, &m
    lock r2
    yield
    const r3, 0
    assert r3
    halt
func worker:
    const r2, &m
    yield
    lock r2
    unlock r2
    halt
`
	p := asm.MustAssemble(src)
	var steps []trace.Step
	rec := Hooks{OnBlockStart: func(tid, block int) { steps = append(steps, trace.Step{Tid: tid, Block: block}) }}
	_, d := run(t, src, Config{Hooks: rec})
	if d == nil || d.Fault.Kind != coredump.FaultAssert {
		t.Fatalf("want an assert dump, got %+v", d)
	}
	fresh := func() *VM {
		v, err := New(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	v := fresh()
	i, f, err := v.Follow(steps)
	if err != nil || f == nil || i != len(steps)-1 {
		t.Fatalf("Follow = %d, %v, %v; want the fault at step %d", i, f, err, len(steps)-1)
	}
	if !f.Same(d.Fault) || !v.SameThreads(d) || len(v.Mem.Diff(d.Mem)) != 0 {
		t.Errorf("followed run ends at %v, not the dump's %v", f, d.Fault)
	}

	wrong := append([]trace.Step(nil), steps...)
	wrong[1].Block = 99
	if i, _, err := fresh().Follow(wrong); i != 1 || err == nil || !strings.Contains(err.Error(), "schedule says 99") {
		t.Errorf("wrong block: Follow = %d, %v", i, err)
	}
	if i, _, err := fresh().Follow([]trace.Step{{Tid: 5}}); i != 0 || err == nil || !strings.Contains(err.Error(), "thread 5 does not exist") {
		t.Errorf("missing thread: Follow = %d, %v", i, err)
	}

	// Main holds m after its first three blocks; the worker then parks
	// on its lock, which is always a block of its own.
	v = fresh()
	if _, f, err := v.Follow(steps[:3]); f != nil || err != nil {
		t.Fatalf("prefix: %v %v", f, err)
	}
	for k := 0; k < 2; k++ {
		b, err := p.BlockAt(v.Thread(1).PC)
		if err != nil {
			t.Fatal(err)
		}
		_, f, err := v.Follow([]trace.Step{{Tid: 1, Block: b.ID}})
		if k == 0 && (f != nil || err != nil) {
			t.Fatalf("worker's first block: %v %v", f, err)
		}
		if k == 1 && (err == nil || !strings.Contains(err.Error(), "scheduled thread 1 blocked on a lock")) {
			t.Errorf("contended lock: Follow error = %v", err)
		}
	}
}

func TestDumpCaptureAndStackWalk(t *testing.T) {
	src := `
.global g 1
func main:
    const r0, 1
    call outer
    halt
func outer:
    call inner
    ret
func inner:
    const r1, 0
    load r2, r1, 0
    ret
`
	p := asm.MustAssemble(src)
	v, _ := New(p, Config{})
	d, err := v.Run()
	if err != nil || d == nil {
		t.Fatalf("expected dump, got %v %v", d, err)
	}
	if d.Fault.Kind != coredump.FaultNullDeref {
		t.Fatalf("fault = %v", d.Fault)
	}
	frames, err := d.Walk(p, d.Fault.Thread)
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if len(frames) != 3 {
		t.Fatalf("frames = %+v", frames)
	}
	if frames[0].Func != "inner" || frames[1].Func != "outer" || frames[2].Func != "main" {
		t.Errorf("stack = %v %v %v", frames[0].Func, frames[1].Func, frames[2].Func)
	}
}

func TestDumpSerializationRoundTrip(t *testing.T) {
	src := `
.global g 2
func main:
    const r1, 7
    storeg r1, &g
    const r2, 0
    spawn worker, r2
    const r3, 0
    load r4, r3, 0
    halt
func worker:
    const r5, 1
w:
    jmp w
`
	p := asm.MustAssemble(src)
	v, _ := New(p, Config{Seed: 3})
	d, _ := v.Run()
	if d == nil {
		t.Fatal("expected a dump")
	}
	b, err := d.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	d2, err := coredump.Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if d2.Fault != d.Fault {
		t.Errorf("fault: %+v vs %+v", d2.Fault, d.Fault)
	}
	if len(d2.Threads) != len(d.Threads) {
		t.Fatalf("threads: %d vs %d", len(d2.Threads), len(d.Threads))
	}
	for i := range d.Threads {
		if d2.Threads[i] != d.Threads[i] {
			t.Errorf("thread %d: %+v vs %+v", i, d2.Threads[i], d.Threads[i])
		}
	}
	if diffs := d2.Mem.Diff(d.Mem); len(diffs) != 0 {
		t.Errorf("memory differs at %v", diffs)
	}
	if d2.Steps != d.Steps {
		t.Errorf("steps: %d vs %d", d2.Steps, d.Steps)
	}
}
