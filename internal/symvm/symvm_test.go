package symvm_test

import (
	"testing"

	"res/internal/asm"
	"res/internal/coredump"
	"res/internal/prog"
	"res/internal/solver"
	"res/internal/symstate"
	"res/internal/symvm"
	"res/internal/symx"
	"res/internal/vm"
)

// crashSnap runs the program to failure and returns the program, dump and
// base snapshot.
func crashSnap(t *testing.T, src string, cfg vm.Config) (*prog.Program, *coredump.Dump, *symstate.Snapshot) {
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
	pool := symx.NewPool()
	return p, d, symstate.FromDump(d, p.Layout.HeapBase, pool)
}

func backExec(t *testing.T, p *prog.Program, post *symstate.Snapshot, tid, start, end int) *symvm.Result {
	t.Helper()
	return symvm.BackExec(symvm.Req{
		P: p, Post: post, Tid: tid, StartPC: start, EndPC: end, SpawnChild: -1,
	}, solver.Options{})
}

func TestHavocAndPassThrough(t *testing.T) {
	// Block writes r1 only: r1's pre-value is havocked (symbolic), other
	// registers pass through from Spost.
	src := `
.global g 1
func main:
    const r1, 5
    storeg r1, &g
    const r2, 0
    assert r2
    halt
`
	p, d, snap := crashSnap(t, src, vm.Config{})
	_ = d
	// Back-execute just "const r1, 5; storeg r1, &g" as a range.
	res := backExec(t, p, snap, 0, 0, 2)
	if res.Verdict != symvm.Feasible {
		t.Fatalf("verdict %v: %s", res.Verdict, res.Reason)
	}
	pre := res.Pre
	r1, _ := pre.Reg(0, 1)
	if _, isVar := r1.IsVar(); !isVar {
		t.Errorf("written register r1 not havocked: %v", r1)
	}
	r3, _ := pre.Reg(0, 3)
	if _, ok := r3.IsConst(); !ok {
		t.Errorf("untouched register r3 should pass through concretely: %v", r3)
	}
	// The overwritten global's pre-value is symbolic in the pre snapshot.
	gaddr, _ := p.GlobalAddr("g")
	if !pre.MemAt(gaddr).HasVars() {
		t.Errorf("overwritten memory should be symbolic, got %v", pre.MemAt(gaddr))
	}
}

func TestIncompatibleWriteRejected(t *testing.T) {
	// The block provably writes 5, but the post state says 6: infeasible.
	src := `
.global g 1
func main:
    const r1, 5
    storeg r1, &g
    const r2, 0
    assert r2
    halt
`
	p, d, _ := crashSnap(t, src, vm.Config{})
	d.Mem.Store(16, 6) // corrupt g (first global)
	pool := symx.NewPool()
	snap := symstate.FromDump(d, p.Layout.HeapBase, pool)
	res := backExec(t, p, snap, 0, 0, 2)
	if res.Verdict != symvm.Infeasible {
		t.Fatalf("verdict = %v, want infeasible", res.Verdict)
	}
}

func TestBranchDirectionConstraint(t *testing.T) {
	src := `
.global g 1
func main:
    input r1, 0
    br r1, a, b
a:
    const r2, 1
    storeg r2, &g
    jmp end
b:
    const r2, 2
    storeg r2, &g
    jmp end
end:
    const r3, 0
    assert r3
    halt
`
	p, d, snap := crashSnap(t, src, vm.Config{Inputs: map[int64][]int64{0: {1}}})
	_ = d
	// Back-execute the entry block [input; br] with post pc at 'a' (2).
	// The branch condition (the input) must be constrained truthy.
	endBlock, _ := p.BlockAt(d.Fault.PC)
	base := backExec(t, p, snap, 0, endBlock.Start, d.Fault.PC)
	if base.Verdict != symvm.Feasible {
		t.Fatalf("base: %v %s", base.Verdict, base.Reason)
	}
	// From end, predecessor 'a' ([2,5)):
	aRes := backExec(t, p, base.Pre, 0, 2, 5)
	if aRes.Verdict != symvm.Feasible {
		t.Fatalf("a: %v %s", aRes.Verdict, aRes.Reason)
	}
	// 'b' ([5,8)) writes g=2 but dump has g=1: infeasible.
	bRes := backExec(t, p, base.Pre, 0, 5, 8)
	if bRes.Verdict != symvm.Infeasible {
		t.Fatalf("b: %v, want infeasible", bRes.Verdict)
	}
	// Behind 'a', the entry block's branch constrains the input truthy.
	entry := backExec(t, p, aRes.Pre, 0, 0, 2)
	if entry.Verdict != symvm.Feasible {
		t.Fatalf("entry: %v %s", entry.Verdict, entry.Reason)
	}
	if len(entry.Inputs) != 1 {
		t.Fatalf("inputs = %v", entry.Inputs)
	}
	// Solve and confirm the input model is non-zero (took the branch).
	chk := entry.Pre.CheckWith(solver.Options{}, nil)
	if chk.Verdict != solver.Sat {
		t.Fatalf("pre constraints unsat")
	}
	if chk.Model()[entry.Inputs[0].Var] == 0 {
		t.Error("branch direction constraint lost: input modelled as 0")
	}
}

func TestReadBeforeWriteUnconstrained(t *testing.T) {
	// Block increments g: the read-before-write pre-value must link to the
	// post value via v_pre + 1 == post.
	src := `
.global g 1
func main:
    loadg r1, &g
    addi r1, r1, 1
    storeg r1, &g
    const r2, 0
    assert r2
    halt
`
	p, d, snap := crashSnap(t, src, vm.Config{})
	gaddr, _ := p.GlobalAddr("g")
	if d.Mem.Load(gaddr) != 1 {
		t.Fatalf("g = %d at crash", d.Mem.Load(gaddr))
	}
	res := backExec(t, p, snap, 0, 0, 3)
	if res.Verdict != symvm.Feasible {
		t.Fatalf("%v: %s", res.Verdict, res.Reason)
	}
	// Solving the pre constraints must pin the pre-value of g to 0.
	chk := res.Pre.CheckWith(solver.Options{}, nil)
	if chk.Verdict != solver.Sat {
		t.Fatal("unsat")
	}
	preG, ok := res.Pre.MemAt(gaddr).Eval(chk.Model())
	if !ok || preG != 0 {
		t.Errorf("pre g = %d, want 0", preG)
	}
}

func TestSpawnChildConstraints(t *testing.T) {
	src := `
func main:
    const r2, 7
    spawn worker, r2
wait:
    jmp wait
func worker:
    load r3, r0, 0
    halt
`
	p, d, snap := crashSnap(t, src, vm.Config{Seed: 3, PreemptPct: 50, MaxSteps: 1000})
	if d.Fault.Kind != coredump.FaultNullDeref {
		t.Skipf("crash did not manifest as null deref: %v", d.Fault)
	}
	// Base case: worker's partial block.
	blk, _ := p.BlockAt(d.Fault.PC)
	base := symvm.BackExec(symvm.Req{
		P: p, Post: snap, Tid: d.Fault.Thread,
		StartPC: blk.Start, EndPC: d.Fault.PC, Partial: true, SpawnChild: -1,
	}, solver.Options{})
	if base.Verdict != symvm.Feasible {
		t.Fatalf("base: %v %s", base.Verdict, base.Reason)
	}
	// Spawn-unwind: main executed the spawn block; the worker un-borns.
	spawnSites := p.SpawnSites(p.FuncByName["worker"].Entry)
	if len(spawnSites) != 1 {
		t.Fatal("no spawn site")
	}
	sb := p.Block(spawnSites[0])
	res := symvm.BackExec(symvm.Req{
		P: p, Post: base.Pre, Tid: 0,
		StartPC: sb.Start, EndPC: sb.End, SpawnChild: 1,
	}, solver.Options{})
	if res.Verdict != symvm.Feasible {
		t.Fatalf("spawn unwind: %v %s", res.Verdict, res.Reason)
	}
	if res.Pre.Thread(1) != nil {
		t.Error("child still live before its spawn")
	}
}

func TestHaltUnwind(t *testing.T) {
	src := `
.global flag 1
func main:
    const r1, 0
    spawn worker, r1
spin:
    loadg r2, &flag
    br r2, crash, spin
crash:
    const r3, 0
    load r4, r3, 0
    halt
func worker:
    const r1, 1
    storeg r1, &flag
    halt
`
	p, d, snap := crashSnap(t, src, vm.Config{Seed: 1, PreemptPct: 40, MaxSteps: 10000})
	wt, err := d.Thread(1)
	if err != nil || wt.State != coredump.ThreadExited {
		t.Skipf("worker not exited in dump: %v %v", wt, err)
	}
	// Unwind the worker's final (halt) block directly from the dump.
	blk, _ := p.BlockAt(wt.PC)
	res := symvm.BackExec(symvm.Req{
		P: p, Post: snap, Tid: 1,
		StartPC: blk.Start, EndPC: blk.End, HaltStep: true, SpawnChild: -1,
	}, solver.Options{})
	if res.Verdict != symvm.Feasible {
		t.Fatalf("halt unwind: %v %s", res.Verdict, res.Reason)
	}
	if res.Pre.Thread(1).State != coredump.ThreadRunnable {
		t.Error("unwound thread should be runnable")
	}
}

func TestDivSideConstraint(t *testing.T) {
	// A completed division implies a non-zero divisor; a post state where
	// the quotient disagrees with any legal divisor is infeasible.
	src := `
.global a 1
.global q 1
func main:
    loadg r1, &a
    const r2, 100
    div r3, r2, r1
    storeg r3, &q
    const r4, 0
    assert r4
    halt
`
	p, d, snap := crashSnap(t, src, vm.Config{})
	_ = d
	res := backExec(t, p, snap, 0, 0, 4)
	// a == 0 in the dump, but then the division would have faulted: the
	// pre-value of a is read before any write, so it equals the dump's 0,
	// contradicting the side constraint divisor != 0.
	if res.Verdict == symvm.Feasible {
		chk := res.Pre.CheckWith(solver.Options{}, nil)
		if chk.Verdict == solver.Sat {
			t.Fatalf("division by zero accepted as feasible")
		}
	}
}

func TestAllocUnwind(t *testing.T) {
	src := `
.global p 1
func main:
    const r1, 3
    alloc r2, r1
    storeg r2, &p
    const r3, 0
    assert r3
    halt
`
	p, d, snap := crashSnap(t, src, vm.Config{})
	_ = d
	res := backExec(t, p, snap, 0, 0, 3)
	if res.Verdict != symvm.Feasible {
		t.Fatalf("%v: %s", res.Verdict, res.Reason)
	}
	if len(res.Pre.Heap) != 0 {
		t.Errorf("pre heap = %+v, want empty", res.Pre.Heap)
	}
	if res.Pre.HeapNext != p.Layout.HeapBase {
		t.Errorf("pre heapNext = %d, want %d", res.Pre.HeapNext, p.Layout.HeapBase)
	}
}

func TestLockUnwind(t *testing.T) {
	src := `
.global m 1
func main:
    const r1, &m
    lock r1
    const r2, 0
    assert r2
    halt
`
	p, d, snap := crashSnap(t, src, vm.Config{})
	if _, held := d.Locks[16]; !held {
		t.Fatalf("mutex not held in dump: %v", d.Locks)
	}
	// The lock block is [lock] alone.
	var lockBlock *prog.Block
	for pc := range p.Code {
		if p.Code[pc].Op.String() == "lock" {
			lockBlock, _ = p.BlockAt(pc)
		}
	}
	res := backExec(t, p, snap, 0, lockBlock.Start, lockBlock.End)
	if res.Verdict != symvm.Feasible {
		t.Fatalf("%v: %s", res.Verdict, res.Reason)
	}
	if _, held := res.Pre.LockOwner(16); held {
		t.Error("mutex still held before its acquisition")
	}
}

func TestEmptyRangeWithFaultCons(t *testing.T) {
	// A fault on a block's first instruction yields an empty base range;
	// the fault constraint is still applied.
	src := `
func main:
    const r1, 0
    br r1, a, b
a:
    halt
b:
    load r2, r1, 0
    halt
`
	p, d, snap := crashSnap(t, src, vm.Config{})
	blk, _ := p.BlockAt(d.Fault.PC)
	if blk.Start != d.Fault.PC {
		t.Skip("fault not on a block leader")
	}
	res := symvm.BackExec(symvm.Req{
		P: p, Post: snap, Tid: 0, StartPC: blk.Start, EndPC: d.Fault.PC,
		Partial: true, SpawnChild: -1,
		FaultCons: func(regs [16]*symx.Expr) []solver.Constraint {
			return []solver.Constraint{solver.Eq(regs[1], symx.Const(0))}
		},
	}, solver.Options{})
	if res.Verdict != symvm.Feasible {
		t.Fatalf("%v: %s", res.Verdict, res.Reason)
	}
}
