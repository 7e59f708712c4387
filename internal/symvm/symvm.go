// Package symvm implements the single-block backward step of reverse
// execution synthesis (§2.4 of the paper): given a post-state snapshot
// Spost and a candidate predecessor block B executed by thread t, it
// derives the hypothesis pre-state Spre by havocking everything B
// overwrites, executes B forward symbolically from Spre, and checks that
// the resulting state S' is an over-approximation of Spost — i.e. that the
// constraint system "S' matches Spost" is satisfiable.
//
// The paper's memory rules are implemented exactly:
//
//   - a write to address a records the written expression; the pre-value
//     of a becomes an unconstrained fresh symbol;
//   - a read from a returns the pending written expression if B already
//     wrote a; otherwise it returns a fresh pre-symbol which, unless a is
//     written later in B, is equated with Spost's value of a at the end
//     (that is the "take it directly from Spost" rule, routed through the
//     solver so it also works when Spost's value is itself symbolic).
//
// Register pre-values are symbols for the registers B writes and
// pass-throughs from Spost otherwise. Address expressions are resolved via
// a register-only pre-pass whose forced (logically implied) bindings
// recover things like stack-pointer arithmetic; remaining ambiguous
// addresses yield an honest Unknown verdict, mirroring the paper's
// deferred treatment of symbolic pointers.
package symvm

import (
	"fmt"
	"slices"
	"sort"

	"res/internal/coredump"
	"res/internal/isa"
	"res/internal/prog"
	"res/internal/solver"
	"res/internal/symstate"
	"res/internal/symx"
)

// Verdict classifies a backward-step attempt.
type Verdict uint8

const (
	Unknown Verdict = iota
	Feasible
	Infeasible
)

func (v Verdict) String() string {
	switch v {
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	}
	return "unknown"
}

// InputUse records one INPUT executed inside the block: the fresh symbol
// that stands for the external value consumed.
type InputUse struct {
	Var     symx.Var
	Channel int64
	PC      int
}

// OutputUse records one OUTPUT executed inside the block.
type OutputUse struct {
	PC    int
	Tag   int64
	Value *symx.Expr
}

// MemAccess records one resolved data memory access (the paper's §3.3
// read/write sets, which focus the developer's attention during replay).
type MemAccess struct {
	PC    int
	Addr  uint32
	Write bool
}

// Req describes one backward-step request.
type Req struct {
	P    *prog.Program
	Post *symstate.Snapshot
	Tid  int
	// Instruction range [StartPC, EndPC) to execute. For a full block this
	// is the whole block including its terminator; for the base-case
	// partial block it stops just before the faulting instruction.
	StartPC, EndPC int
	// Partial marks the base-case range (no terminator semantics).
	Partial bool
	// SpawnChild is the thread id being un-born when the range ends in
	// SPAWN; -1 otherwise.
	SpawnChild int
	// HaltStep marks the unwinding of an exited thread's final block.
	HaltStep bool
	// FaultCons, when non-nil, contributes extra constraints derived from
	// the failing instruction (e.g. "the faulting load's address equals
	// the fault address"), given the register state at the end of the
	// range.
	FaultCons func(finalRegs [isa.NumRegs]*symx.Expr) []solver.Constraint
}

// Result is the outcome of a backward step.
type Result struct {
	Verdict     Verdict
	Reason      string
	Pre         *symstate.Snapshot // populated when Feasible
	Inputs      []InputUse
	Outputs     []OutputUse
	Accesses    []MemAccess
	SolverCalls int
}

type lockOp struct {
	addr   uint32
	unlock bool
}

type heapOp struct {
	free bool
	base uint32 // object base (alloc: assigned; free: resolved operand)
}

type exec struct {
	req  Req
	opt  solver.Options
	pool *symx.Pool

	regs       [isa.NumRegs]*symx.Expr
	preRegVars map[isa.Reg]symx.Var
	writeSet   map[isa.Reg]bool

	writes map[uint32]*symx.Expr
	preMem map[uint32]symx.Var
	// eager maps addresses whose pre-value symbol was optimistically
	// equated with Spost's value at read time (so mid-block address
	// resolution can chase pointers). A later write to the address
	// retracts the constraint: the pre-value is then unconstrained.
	eager map[uint32]int

	cons    []solver.Constraint // side constraints gathered during execution
	inputs  []InputUse
	outputs []OutputUse
	access  []MemAccess

	lockOps []lockOp
	heapOps []heapOp
	// heapRun is the contiguous top-of-heap run of objects allocated by
	// this range, oldest first.
	heapRun []coredump.HeapObject

	// forced looks up the probe's forced bindings; nil in the probe.
	forced func(symx.Var) (int64, bool)
	// fresh lists the variables forced binds that the post snapshot's
	// solver session does not.
	fresh       []symx.Var
	probe       bool
	solverCalls int
}

// BackExec performs one backward step.
func BackExec(req Req, opt solver.Options) *Result {
	if req.Post.Thread(req.Tid) == nil {
		return &Result{Verdict: Infeasible, Reason: fmt.Sprintf("thread %d not live", req.Tid)}
	}
	if req.StartPC >= req.EndPC {
		// An empty range (fault on a block's first instruction) is a
		// no-op step: the pre-state is the post-state.
		r := &Result{Verdict: Feasible, Pre: req.Post.Clone()}
		if req.FaultCons != nil {
			r.Pre.AddCons(req.FaultCons(req.Post.Thread(req.Tid).Regs)...)
			chk := r.Pre.Check(opt)
			r.SolverCalls++
			if chk.Verdict == solver.Unsat {
				return &Result{Verdict: Infeasible, Reason: "fault condition unsatisfiable: " + chk.Reason, SolverCalls: r.SolverCalls}
			}
			if chk.Verdict == solver.Unknown {
				return &Result{Verdict: Unknown, Reason: chk.Reason, SolverCalls: r.SolverCalls}
			}
		}
		return r
	}

	// Pass A: register-only probe to learn forced pre-register bindings
	// (stack-pointer arithmetic and friends). Only the probe's own
	// constraints are propagated on top of the post snapshot's session;
	// the probe reads what they force and whether they are Unsat, so it
	// searches only a residue the search could refute.
	probe := newExec(req, opt, true, nil, make(map[isa.Reg]symx.Var))
	if res := probe.run(); res != nil {
		return res
	}
	pr := req.Post.RefuteWith(opt, append(probe.postRegCons(), probe.cons...))
	if pr.Verdict == solver.Unsat {
		return &Result{Verdict: Infeasible, Reason: "register state contradiction: " + pr.Reason, SolverCalls: probe.solverCalls + 1}
	}

	// Pass B: the real execution with forced bindings available for
	// address resolution. It shares the probe's pre-register symbols.
	e := newExec(req, opt, false, pr.Forced, probe.preRegVars)
	e.fresh = pr.NewlyForced
	e.solverCalls = probe.solverCalls + 1
	if res := e.run(); res != nil {
		return res
	}
	return e.finish()
}

// newExec prepares one pass over the range, with its pre-state register
// file built over preRegVars.
func newExec(req Req, opt solver.Options, probe bool, forced func(symx.Var) (int64, bool), preRegVars map[isa.Reg]symx.Var) *exec {
	e := &exec{
		req:        req,
		opt:        opt,
		pool:       req.Post.Pool,
		preRegVars: preRegVars,
		writeSet:   make(map[isa.Reg]bool),
		writes:     make(map[uint32]*symx.Expr),
		preMem:     make(map[uint32]symx.Var),
		eager:      make(map[uint32]int),
		forced:     forced,
		probe:      probe,
	}
	for pc := req.StartPC; pc < req.EndPC; pc++ {
		if r, ok := req.P.Code[pc].WritesReg(); ok {
			e.writeSet[r] = true
		}
	}
	e.initRegs()
	return e
}

// initRegs sets up the pre-state register file: fresh symbols for written
// registers, Spost pass-throughs otherwise.
func (e *exec) initRegs() {
	post := e.req.Post.Thread(e.req.Tid)
	for r := 0; r < isa.NumRegs; r++ {
		reg := isa.Reg(r)
		if e.writeSet[reg] {
			v, ok := e.preRegVars[reg]
			if !ok {
				v = e.pool.Fresh(fmt.Sprintf("t%d.%s@d%d", e.req.Tid, reg, e.req.Post.Depth+1))
				e.preRegVars[reg] = v
			}
			e.regs[r] = e.substForced(symx.VarExpr(v))
		} else {
			e.regs[r] = e.substForced(post.Regs[r])
		}
	}
}

// substForced rewrites variables with their forced (implied) values.
func (e *exec) substForced(x *symx.Expr) *symx.Expr {
	if e.forced == nil {
		return x
	}
	return x.SubstFunc(func(v symx.Var) (*symx.Expr, bool) {
		if c, ok := e.forced(v); ok {
			return symx.Const(c), true
		}
		return nil, false
	})
}

// run executes the instruction range. It returns a terminal Result on
// Infeasible/Unknown, nil to continue to finish().
func (e *exec) run() *Result {
	for pc := e.req.StartPC; pc < e.req.EndPC; pc++ {
		in := &e.req.P.Code[pc]
		if res := e.step(pc, in); res != nil {
			return res
		}
	}
	return nil
}

func (e *exec) fail(v Verdict, format string, args ...any) *Result {
	return &Result{Verdict: v, Reason: fmt.Sprintf(format, args...), SolverCalls: e.solverCalls}
}

// resolveAddr turns an address expression into a concrete word address.
func (e *exec) resolveAddr(x *symx.Expr, pc int) (uint32, *Result) {
	x = e.substForced(x)
	if c, ok := x.IsConst(); ok {
		lay := e.req.P.Layout
		if c < int64(lay.GlobalBase) || c >= int64(lay.MemSize) {
			// The block executed without faulting, so an illegal address
			// proves the candidate infeasible.
			return 0, e.fail(Infeasible, "pc %d: resolved address %d is illegal for a non-faulting block", pc, c)
		}
		return uint32(c), nil
	}
	if e.probe {
		return 0, e.fail(Unknown, "probe: symbolic address at pc %d", pc)
	}
	// Uniqueness resolution against the accumulated constraints.
	r1 := e.req.Post.CheckWith(e.opt, e.cons)
	e.solverCalls++
	if r1.Verdict == solver.Unsat {
		return 0, e.fail(Infeasible, "pc %d: path constraints unsatisfiable while resolving address", pc)
	}
	if r1.Verdict != solver.Sat {
		return 0, e.fail(Unknown, "pc %d: cannot resolve symbolic address %s", pc, x)
	}
	v1, ok := r1.Eval(x)
	if !ok {
		return 0, e.fail(Unknown, "pc %d: address evaluation failed", pc)
	}
	ne := append(append([]solver.Constraint(nil), e.cons...), solver.Ne(x, symx.Const(v1)))
	r2 := e.req.Post.CheckWith(e.opt, ne)
	e.solverCalls++
	if r2.Verdict != solver.Unsat {
		return 0, e.fail(Unknown, "pc %d: ambiguous symbolic address %s", pc, x)
	}
	lay := e.req.P.Layout
	if v1 < int64(lay.GlobalBase) || v1 >= int64(lay.MemSize) {
		return 0, e.fail(Infeasible, "pc %d: unique address %d is illegal", pc, v1)
	}
	// Pin the address so later steps agree with the resolution.
	e.cons = append(e.cons, solver.Eq(x, symx.Const(v1)))
	return uint32(v1), nil
}

// readMem applies the paper's backward read rule at address a: pending
// in-block writes are forwarded; otherwise the read returns a pre-value
// symbol. The symbol is optimistically equated with Spost's value right
// away — the paper's "take the value directly from Spost" — and the
// equation is retracted if the block later overwrites the address.
func (e *exec) readMem(a uint32, pc int) *symx.Expr {
	e.access = append(e.access, MemAccess{PC: pc, Addr: a})
	if w, ok := e.writes[a]; ok {
		return w
	}
	if v, ok := e.preMem[a]; ok {
		return e.substForced(symx.VarExpr(v))
	}
	v := e.pool.Fresh(fmt.Sprintf("pre.m[%d]@d%d", a, e.req.Post.Depth+1))
	e.preMem[a] = v
	e.eager[a] = len(e.cons)
	e.cons = append(e.cons, solver.Eq(symx.VarExpr(v), e.req.Post.MemAt(a)))
	return e.substForced(symx.VarExpr(v))
}

// writeMem applies the backward write rule, retracting any optimistic
// pre-value equation for the overwritten address.
func (e *exec) writeMem(a uint32, val *symx.Expr, pc int) {
	e.access = append(e.access, MemAccess{PC: pc, Addr: a, Write: true})
	if idx, ok := e.eager[a]; ok {
		e.cons[idx] = solver.Eq(symx.Const(0), symx.Const(0))
		delete(e.eager, a)
	}
	e.writes[a] = val
}

// step executes one instruction symbolically.
func (e *exec) step(pc int, in *isa.Instr) *Result {
	r := &e.regs
	bin := func(op symx.Op) {
		r[in.Rd] = symx.Binary(op, r[in.Rs1], r[in.Rs2])
	}
	bini := func(op symx.Op) {
		r[in.Rd] = symx.Binary(op, r[in.Rs1], symx.Const(in.Imm))
	}
	switch in.Op {
	case isa.OpNop:
	case isa.OpConst:
		r[in.Rd] = symx.Const(in.Imm)
	case isa.OpMov:
		r[in.Rd] = r[in.Rs1]
	case isa.OpAdd:
		bin(symx.OpAdd)
	case isa.OpSub:
		bin(symx.OpSub)
	case isa.OpMul:
		bin(symx.OpMul)
	case isa.OpDiv:
		// The block completed, so the divisor was non-zero.
		e.cons = append(e.cons, solver.Ne(r[in.Rs2], symx.Const(0)))
		bin(symx.OpDiv)
	case isa.OpMod:
		e.cons = append(e.cons, solver.Ne(r[in.Rs2], symx.Const(0)))
		bin(symx.OpMod)
	case isa.OpAnd:
		bin(symx.OpAnd)
	case isa.OpOr:
		bin(symx.OpOr)
	case isa.OpXor:
		bin(symx.OpXor)
	case isa.OpShl:
		bin(symx.OpShl)
	case isa.OpShr:
		bin(symx.OpShr)
	case isa.OpAddI:
		bini(symx.OpAdd)
	case isa.OpMulI:
		bini(symx.OpMul)
	case isa.OpAndI:
		bini(symx.OpAnd)
	case isa.OpXorI:
		bini(symx.OpXor)
	case isa.OpNot:
		r[in.Rd] = symx.Unary(symx.OpNot, r[in.Rs1])
	case isa.OpNeg:
		r[in.Rd] = symx.Unary(symx.OpNeg, r[in.Rs1])
	case isa.OpCmpEq:
		bin(symx.OpEq)
	case isa.OpCmpNe:
		bin(symx.OpNe)
	case isa.OpCmpLt:
		bin(symx.OpLt)
	case isa.OpCmpLe:
		bin(symx.OpLe)

	case isa.OpLoad, isa.OpLoadG:
		if e.probe {
			// Probe mode: the read value is an opaque fresh symbol and the
			// address is not resolved; register dataflow is all pass A
			// needs.
			r[in.Rd] = e.pool.FreshExpr(fmt.Sprintf("probe.m@pc%d", pc))
			break
		}
		addrExpr := symx.Const(in.Imm)
		if in.Op == isa.OpLoad {
			addrExpr = symx.Binary(symx.OpAdd, r[in.Rs1], symx.Const(in.Imm))
		}
		a, res := e.resolveAddr(addrExpr, pc)
		if res != nil {
			return res
		}
		r[in.Rd] = e.readMem(a, pc)
	case isa.OpStore, isa.OpStoreG:
		if e.probe {
			break
		}
		addrExpr := symx.Const(in.Imm)
		val := r[in.Rs1]
		if in.Op == isa.OpStore {
			addrExpr = symx.Binary(symx.OpAdd, r[in.Rs1], symx.Const(in.Imm))
			val = r[in.Rs2]
		}
		a, res := e.resolveAddr(addrExpr, pc)
		if res != nil {
			return res
		}
		e.writeMem(a, val, pc)

	case isa.OpJmp:
		if !e.req.Partial && e.postPC() != in.Target {
			return e.fail(Infeasible, "jmp at %d targets %d, post pc is %d", pc, in.Target, e.postPC())
		}
	case isa.OpBr:
		if e.req.Partial {
			break
		}
		postPC := e.postPC()
		switch {
		case postPC == in.Target && postPC == in.Target2:
			// Either direction reaches the successor: no constraint.
		case postPC == in.Target:
			e.cons = append(e.cons, solver.Truthy(r[in.Rs1]))
		case postPC == in.Target2:
			e.cons = append(e.cons, solver.Falsy(r[in.Rs1]))
		default:
			return e.fail(Infeasible, "br at %d cannot reach post pc %d", pc, postPC)
		}
	case isa.OpCall:
		if !e.req.Partial && e.postPC() != in.Target {
			return e.fail(Infeasible, "call at %d targets %d, post pc is %d", pc, in.Target, e.postPC())
		}
		spExpr := symx.Binary(symx.OpAdd, r[isa.SP], symx.Const(-1))
		if !e.probe {
			a, res := e.resolveAddr(spExpr, pc)
			if res != nil {
				return res
			}
			e.writeMem(a, symx.Const(int64(pc+1)), pc)
		}
		r[isa.SP] = spExpr
	case isa.OpRet:
		if !e.probe {
			a, res := e.resolveAddr(r[isa.SP], pc)
			if res != nil {
				return res
			}
			if !e.req.Partial {
				retVal := e.readMem(a, pc)
				e.cons = append(e.cons, solver.Eq(retVal, symx.Const(int64(e.postPC()))))
			}
		}
		r[isa.SP] = symx.Binary(symx.OpAdd, r[isa.SP], symx.Const(1))

	case isa.OpAlloc:
		if e.probe {
			r[in.Rd] = e.pool.FreshExpr("probe.alloc")
			break
		}
		obj, res := e.popHeapTop(pc)
		if res != nil {
			return res
		}
		e.cons = append(e.cons, solver.Eq(r[in.Rs1], symx.Const(int64(obj.Size))))
		r[in.Rd] = symx.Const(int64(obj.Base))
		e.heapOps = append(e.heapOps, heapOp{base: obj.Base})
	case isa.OpFree:
		if e.probe {
			break
		}
		a, res := e.resolveAddr(r[in.Rs1], pc)
		if res != nil {
			return res
		}
		e.heapOps = append(e.heapOps, heapOp{free: true, base: a})

	case isa.OpSpawn:
		// Semantics handled in finish(); requires SpawnChild.
		if !e.req.Partial && e.req.SpawnChild < 0 {
			return e.fail(Infeasible, "spawn at %d without child to unwind", pc)
		}
	case isa.OpYield:
		// No effect.
	case isa.OpLock:
		if e.probe {
			break
		}
		a, res := e.resolveAddr(r[in.Rs1], pc)
		if res != nil {
			return res
		}
		e.lockOps = append(e.lockOps, lockOp{addr: a})
	case isa.OpUnlock:
		if e.probe {
			break
		}
		a, res := e.resolveAddr(r[in.Rs1], pc)
		if res != nil {
			return res
		}
		e.lockOps = append(e.lockOps, lockOp{addr: a, unlock: true})

	case isa.OpInput:
		v := e.pool.Fresh(fmt.Sprintf("input.ch%d@pc%d.d%d", in.Imm, pc, e.req.Post.Depth+1))
		if !e.probe {
			e.inputs = append(e.inputs, InputUse{Var: v, Channel: in.Imm, PC: pc})
		}
		r[in.Rd] = symx.VarExpr(v)
	case isa.OpOutput:
		if !e.probe {
			e.outputs = append(e.outputs, OutputUse{PC: pc, Tag: in.Imm, Value: r[in.Rs1]})
		}
	case isa.OpAssert:
		// The block completed, so the assertion held.
		e.cons = append(e.cons, solver.Truthy(r[in.Rs1]))
	case isa.OpHalt:
		if !e.req.HaltStep && !e.req.Partial {
			return e.fail(Infeasible, "halt at %d outside a halt-unwind step", pc)
		}
	default:
		return e.fail(Unknown, "unhandled opcode %v at %d", in.Op, pc)
	}
	return nil
}

func (e *exec) postPC() int { return e.req.Post.Thread(e.req.Tid).PC }

// popHeapTop returns the next object being un-allocated. The range's
// allocations form a contiguous run at the top of the bump-allocated heap
// (the run ends at Spost's bump pointer); allocations execute forward, so
// the i-th ALLOC of the range claims the i-th object of the run.
func (e *exec) popHeapTop(pc int) (coredump.HeapObject, *Result) {
	if e.heapRun == nil {
		n := 0
		for p := e.req.StartPC; p < e.req.EndPC; p++ {
			if e.req.P.Code[p].Op == isa.OpAlloc {
				n++
			}
		}
		run := make([]coredump.HeapObject, 0, n)
		end := e.req.Post.HeapNext
		for len(run) < n {
			found := false
			for _, h := range e.req.Post.Heap {
				if h.Base+h.Size == end {
					run = append([]coredump.HeapObject{h}, run...)
					end = h.Base - prog.HeapRedzone
					found = true
					break
				}
			}
			if !found {
				return coredump.HeapObject{}, e.fail(Infeasible, "pc %d: heap lacks %d trailing allocations", pc, n)
			}
		}
		e.heapRun = run
	}
	idx := 0
	for _, op := range e.heapOps {
		if !op.free {
			idx++
		}
	}
	if idx >= len(e.heapRun) {
		return coredump.HeapObject{}, e.fail(Infeasible, "pc %d: more allocs than heap run", pc)
	}
	return e.heapRun[idx], nil
}

// postRegCons builds the register compatibility constraints: the final
// value of every written register must match Spost.
func (e *exec) postRegCons() []solver.Constraint {
	post := e.req.Post.Thread(e.req.Tid)
	var out []solver.Constraint
	for r := 0; r < isa.NumRegs; r++ {
		if e.writeSet[isa.Reg(r)] {
			out = append(out, solver.Eq(e.regs[r], post.Regs[r]))
		}
	}
	return out
}

// sortedAddrs returns the keys of an address-keyed map in ascending
// order, so constraint emission is deterministic run to run.
func sortedAddrs[V any](m map[uint32]V) []uint32 {
	out := make([]uint32, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// finish assembles the step's added constraints (the compatibility system
// minus the already-solved history), checks them incrementally against
// the post snapshot's solver session, and on success constructs the
// pre-state snapshot as a copy-on-write layer over Spost.
func (e *exec) finish() *Result {
	req := e.req
	post := req.Post

	// The constraints this step adds on top of post's accumulated set.
	// Map-derived segments are emitted in sorted order so the system — and
	// therefore every solver decision downstream — is deterministic.
	added := e.postRegCons()
	for _, a := range sortedAddrs(e.writes) {
		added = append(added, solver.Eq(e.writes[a], post.MemAt(a)))
	}
	for _, a := range sortedAddrs(e.preMem) {
		if _, written := e.writes[a]; !written {
			if _, hasEager := e.eager[a]; !hasEager {
				added = append(added, solver.Eq(symx.VarExpr(e.preMem[a]), post.MemAt(a)))
			}
		}
	}
	added = append(added, e.cons...)
	// Forced bindings are implied by the pass-A subset of this system;
	// asserting them keeps the substituted system equisatisfiable. Only the
	// ones post's session does not bind need asserting: the session would
	// discharge the others on propagation without changing its state.
	forcedVars := append([]symx.Var(nil), e.fresh...)
	slices.Sort(forcedVars)
	for _, v := range forcedVars {
		c, _ := e.forced(v)
		added = append(added, solver.Eq(symx.VarExpr(v), symx.Const(c)))
	}
	if req.FaultCons != nil {
		added = append(added, req.FaultCons(e.regs)...)
	}

	// Spawn terminator: the child's register file at Spost must be the
	// fresh-thread state the SPAWN created.
	if req.SpawnChild >= 0 {
		child := post.Thread(req.SpawnChild)
		if child == nil {
			return e.fail(Infeasible, "spawn child %d not live", req.SpawnChild)
		}
		term := &req.P.Code[req.EndPC-1]
		if term.Op != isa.OpSpawn {
			return e.fail(Infeasible, "spawn-unwind step does not end in spawn")
		}
		if child.PC != term.Target {
			return e.fail(Infeasible, "child pc %d is not at spawn target %d", child.PC, term.Target)
		}
		for r := 0; r < isa.NumRegs; r++ {
			switch isa.Reg(r) {
			case 0:
				added = append(added, solver.Eq(e.regs[term.Rs1], child.Regs[0]))
			case isa.SP:
				top := req.P.Layout.StackTop(req.SpawnChild)
				added = append(added, solver.Eq(symx.Const(int64(top)), child.Regs[isa.SP]))
			default:
				added = append(added, solver.Eq(symx.Const(0), child.Regs[r]))
			}
		}
	}

	// Lock-table reconstruction, applied in reverse over the recorded
	// operations. Only the changed addresses are tracked (the pre snapshot
	// layers them over post); a nil entry means freed.
	lockChanges := make(map[uint32]*int)
	lockOwner := func(a uint32) (int, bool) {
		if o, ok := lockChanges[a]; ok {
			if o == nil {
				return 0, false
			}
			return *o, true
		}
		return post.LockOwner(a)
	}
	for i := len(e.lockOps) - 1; i >= 0; i-- {
		op := e.lockOps[i]
		owner, held := lockOwner(op.addr)
		if op.unlock {
			// Reverse of unlock: the mutex must be free after, held before.
			if held {
				return e.fail(Infeasible, "unlock of %d but mutex still held by t%d at post", op.addr, owner)
			}
			tid := req.Tid
			lockChanges[op.addr] = &tid
		} else {
			// Reverse of lock: held by tid after, free before.
			if !held || owner != req.Tid {
				return e.fail(Infeasible, "lock of %d not reflected in post lock table", op.addr)
			}
			lockChanges[op.addr] = nil
		}
	}

	preHeap := post.Heap
	preHeapNext := post.HeapNext
	if len(e.heapOps) > 0 {
		preHeap = append([]coredump.HeapObject(nil), post.Heap...)
		for i := len(e.heapOps) - 1; i >= 0; i-- {
			op := e.heapOps[i]
			if op.free {
				found := false
				for j := range preHeap {
					if preHeap[j].Base == op.base {
						if !preHeap[j].Freed {
							return e.fail(Infeasible, "free of %d but object live at post", op.base)
						}
						preHeap[j].Freed = false
						preHeap[j].FreePC = -1
						found = true
						break
					}
				}
				if !found {
					return e.fail(Infeasible, "free of %d with no allocator record", op.base)
				}
			} else {
				// Reverse of alloc: remove the object; the bump pointer
				// retreats to its base.
				idx := -1
				for j := range preHeap {
					if preHeap[j].Base == op.base {
						idx = j
						break
					}
				}
				if idx < 0 {
					return e.fail(Infeasible, "alloc of %d with no allocator record", op.base)
				}
				preHeap = append(preHeap[:idx], preHeap[idx+1:]...)
				preHeapNext = op.base - prog.HeapRedzone
			}
		}
	}

	// Build Spre as a copy-on-write layer and check the added constraints:
	// the check propagates only `added` on top of post's session.
	pre := post.Clone()
	pre.Depth++
	pre.AddCons(added...)
	chk := pre.Check(e.opt)
	e.solverCalls++
	switch chk.Verdict {
	case solver.Unsat:
		return e.fail(Infeasible, "incompatible with Spost: %s", chk.Reason)
	case solver.Unknown:
		return e.fail(Unknown, "solver: %s", chk.Reason)
	}

	for a, o := range lockChanges {
		if o == nil {
			pre.DeleteLock(a)
		} else {
			pre.SetLock(a, *o)
		}
	}
	pre.Heap = preHeap
	pre.HeapNext = preHeapNext
	for _, a := range sortedAddrs(e.writes) {
		if v, ok := e.preMem[a]; ok {
			pre.SetMem(a, symx.VarExpr(v))
		} else {
			pre.SetMem(a, e.pool.FreshExpr(fmt.Sprintf("pre.m[%d]@d%d", a, pre.Depth)))
		}
	}
	for a, v := range e.preMem {
		if _, written := e.writes[a]; !written {
			pre.SetMem(a, symx.VarExpr(v))
		}
	}
	t := pre.MutableThread(req.Tid)
	for r := 0; r < isa.NumRegs; r++ {
		if e.writeSet[isa.Reg(r)] {
			t.Regs[r] = symx.VarExpr(e.preRegVars[isa.Reg(r)])
		}
	}
	t.PC = req.StartPC
	t.State = coredump.ThreadRunnable
	t.WaitAddr = 0
	if req.SpawnChild >= 0 {
		pre.DeleteThread(req.SpawnChild)
	}

	return &Result{
		Verdict:     Feasible,
		Pre:         pre,
		Inputs:      e.inputs,
		Outputs:     e.outputs,
		Accesses:    e.access,
		SolverCalls: e.solverCalls,
	}
}
