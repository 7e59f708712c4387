package fixverify

import (
	"fmt"

	"res/internal/asm"
	"res/internal/core"
	"res/internal/coredump"
	"res/internal/isa"
	"res/internal/prog"
	"res/internal/replay"
	"res/internal/solver"
	"res/internal/symx"
	"res/internal/trace"
	"res/internal/vm"
)

// Verdict is the outcome of a fix verification.
type Verdict string

const (
	// VerdictFixed: the original failure provably cannot fire in the
	// replayed window under the patch.
	VerdictFixed Verdict = "fixed"
	// VerdictNotFixed: the failure (or its residual condition) survives
	// the patch.
	VerdictNotFixed Verdict = "not-fixed"
	// VerdictInconclusive: the patched execution diverges before the
	// patch takes effect, or the patch lies outside the reproduced
	// window, so this repro cannot judge the fix.
	VerdictInconclusive Verdict = "inconclusive"
)

// Result reports one fix verification.
type Result struct {
	Verdict Verdict `json:"verdict"`
	// Reason explains the verdict.
	Reason string `json:"reason"`
	// ResidualSat reports whether the residual failure constraint — the
	// original fault's firing condition evaluated over the patched
	// replay's state — is still satisfiable. It is the evidence behind a
	// fixed/not-fixed verdict reached without the fault literally firing.
	ResidualSat bool `json:"residual_sat"`
	// Residual renders the residual constraint that was checked, when one
	// was.
	Residual string `json:"residual,omitempty"`
	// PatchFingerprint is the verified patch's content address.
	PatchFingerprint string `json:"patch_fingerprint"`
	// Contacted reports whether patched code executed during the replay.
	Contacted bool `json:"contacted"`
}

// runOutBlocks bounds the deterministic run-out after the forced
// schedule completes without a fault: the patch may have shifted the
// failure a few blocks past the recorded window.
const runOutBlocks = 256

// Verify checks a proposed fix against a synthesized failure suffix. It
// applies the patch to the program's source, maps the suffix's pre-state
// onto the patched program, and force-replays the synthesized schedule:
// strictly (block by block) until the execution first touches patched
// code, then by thread order, then a bounded deterministic run-out. A
// divergence before any patched code runs means the repro window cannot
// judge the patch (inconclusive); a reproduced fault means not-fixed; a
// clean window is judged by the residual failure constraint's
// satisfiability.
//
// source must be the assembly text the suffix was synthesized against.
func Verify(source string, p *Patch, syn *core.Synthesized, d *coredump.Dump) (*Result, error) {
	if syn == nil || syn.Suffix == nil {
		return nil, fmt.Errorf("fixverify: no synthesized suffix to replay")
	}
	orig, err := asm.Assemble(source)
	if err != nil {
		return nil, fmt.Errorf("fixverify: original program does not assemble: %w", err)
	}
	applied, err := Apply(source, p)
	if err != nil {
		return nil, err
	}
	res := &Result{PatchFingerprint: p.Fingerprint()}
	inconclusive := func(format string, args ...any) (*Result, error) {
		res.Verdict = VerdictInconclusive
		res.Reason = fmt.Sprintf(format, args...)
		return res, nil
	}
	notFixed := func(format string, args ...any) (*Result, error) {
		res.Verdict = VerdictNotFixed
		res.Reason = fmt.Sprintf(format, args...)
		return res, nil
	}

	// Map the suffix's starting PCs onto the patched program. A start
	// inside a patched region means the recorded window begins in code
	// the patch rewrote — nothing to anchor the replay on.
	psyn := &core.Synthesized{
		Suffix: &trace.Suffix{
			EndPC:    -1,
			StartPCs: make(map[int]int, len(syn.Suffix.StartPCs)),
			Inputs:   syn.Suffix.Inputs,
		},
		PreMem:      syn.PreMem,
		PreRegs:     syn.PreRegs,
		PreStates:   syn.PreStates,
		PreLocks:    syn.PreLocks,
		PreHeap:     syn.PreHeap,
		PreHeapNext: syn.PreHeapNext,
	}
	for tid, pc := range syn.Suffix.StartPCs {
		mpc, ok := applied.PCMap[pc]
		if !ok {
			return inconclusive("thread %d's suffix start (pc %d) is inside patched code; the window cannot anchor the replay", tid, pc)
		}
		psyn.Suffix.StartPCs[tid] = mpc
	}

	v, err := replay.New(applied.Program, psyn, replay.Config{})
	if err != nil {
		return nil, fmt.Errorf("fixverify: %w", err)
	}

	mappedFaultPC, faultMapped := applied.PCMap[d.Fault.PC]
	guard := &guardSampler{v: v, tid: d.Fault.Thread, mapped: faultMapped, pc: mappedFaultPC}

	var fault *coredump.Fault
	steps := syn.Suffix.Steps
schedule: // phase 1+2: the forced schedule
	for i, step := range steps {
		t := v.Thread(step.Tid)
		if t == nil || t.State == coredump.ThreadExited {
			if res.Contacted {
				break // the patch changed scheduling; judge by run-out + residual
			}
			return inconclusive("replay diverged at step %d before reaching the patch: thread %d is gone", i, step.Tid)
		}
		block, berr := applied.Program.BlockAt(t.PC)
		if berr != nil {
			if res.Contacted {
				break
			}
			return inconclusive("replay diverged at step %d before reaching the patch: %v", i, berr)
		}
		touched := blockTouched(block, applied.Touched)
		if !res.Contacted {
			expected, mapped := expectedStart(orig, step.Block, applied.PCMap)
			switch {
			case touched || !mapped:
				// First contact: the schedule entered patched code (or a
				// region whose original instructions the patch removed).
				res.Contacted = true
			case !block.Contains(expected):
				// Same fidelity as replay.Run: the thread must be inside the
				// scheduled block (its start may be mid-block for the first,
				// partial step of a thread).
				return inconclusive("replay diverged at step %d before reaching the patch: thread %d at pc %d, schedule expects block starting at %d", i, step.Tid, t.PC, expected)
			}
		}
		f := v.ExecBlock(step.Tid)
		guard.sample(step.Tid, block)
		if f == nil {
			continue
		}
		if f.Kind == coredump.FaultNone {
			if res.Contacted {
				break schedule // forced thread blocked post-contact
			}
			return inconclusive("replay diverged at step %d before reaching the patch: forced thread %d blocked", i, step.Tid)
		}
		fault = f
		if !res.Contacted && !(i == len(steps)-1 && faultMatches(f, d, mappedFaultPC, faultMapped)) {
			return inconclusive("replay faulted at step %d (%v) before reaching the patch", i, f)
		}
		break schedule
	}

	if fault == nil && res.Contacted {
		// Run-out: the patch may have pushed the failure past the recorded
		// window. Continue deterministically (rotating over runnable
		// threads) for a bounded number of blocks.
		fault = runOut(v, guard)
	}

	if fault != nil {
		res.ResidualSat = true
		if faultMatches(fault, d, mappedFaultPC, faultMapped) {
			if applied.Identity {
				return notFixed("identity patch: the failure reproduces unchanged")
			}
			return notFixed("the failure still reproduces under the patch (%v)", fault)
		}
		if res.Contacted {
			return notFixed("the patch changes the execution but it still fails: %v", fault)
		}
		return inconclusive("replay faulted before reaching the patch: %v", fault)
	}

	if !res.Contacted {
		if applied.Identity {
			return notFixed("identity patch leaves the program unchanged")
		}
		return inconclusive("the patch never executes within the reproduced window; re-analyze with a wider suffix to judge it")
	}

	// Clean window: judge by the residual failure constraint — can the
	// original fault still fire at its (mapped) site given the replayed
	// state?
	if !faultMapped {
		res.Verdict = VerdictFixed
		res.Reason = "the patch removes the failure site; no failure in the replayed window"
		res.Residual = "unsatisfiable: failure site removed"
		return res, nil
	}
	if !guard.sampled {
		res.Verdict = VerdictFixed
		res.Reason = "the failure site is never reached under the reproduced schedule"
		res.Residual = "unsatisfiable: failure site not reached"
		return res, nil
	}
	c, ok := residualConstraint(applied.Program, mappedFaultPC, d.Fault.Kind, guard.regs)
	if !ok {
		res.Verdict = VerdictFixed
		res.Reason = "no failure within the replayed window"
		return res, nil
	}
	res.Residual = c.String()
	check := solver.Check([]solver.Constraint{c}, solver.Options{})
	switch check.Verdict {
	case solver.Sat:
		res.ResidualSat = true
		return notFixed("the residual failure constraint still holds at the failure site (%s)", res.Residual)
	case solver.Unsat:
		res.Verdict = VerdictFixed
		res.Reason = "the residual failure constraint is unsatisfiable at the failure site"
		return res, nil
	default:
		return inconclusive("the residual failure constraint's satisfiability is undecided (%s)", res.Residual)
	}
}

// guardSampler captures the fault thread's registers each time it
// finishes executing the block holding the mapped failure site; the last
// sample feeds the residual constraint.
type guardSampler struct {
	v       *vm.VM
	tid     int
	mapped  bool
	pc      int
	sampled bool
	regs    [isa.NumRegs]int64
}

func (g *guardSampler) sample(tid int, block *prog.Block) {
	if !g.mapped || tid != g.tid || !block.Contains(g.pc) {
		return
	}
	if t := g.v.Thread(tid); t != nil {
		g.regs = t.Regs
		g.sampled = true
	}
}

// blockTouched reports whether the block contains any patch-introduced
// instruction.
func blockTouched(b *prog.Block, touched map[int]bool) bool {
	for pc := b.Start; pc < b.End; pc++ {
		if touched[pc] {
			return true
		}
	}
	return false
}

// expectedStart maps an original schedule step's block to its patched
// starting pc; mapped is false when the block's first instruction was
// removed or replaced by the patch.
func expectedStart(orig *prog.Program, blockID int, pcMap map[int]int) (int, bool) {
	if blockID < 0 || blockID >= orig.NumBlocks() {
		return 0, false
	}
	pc, ok := pcMap[orig.Block(blockID).Start]
	return pc, ok
}

// faultMatches compares a replayed fault against the original failure,
// with the failure pc translated through the patch mapping.
func faultMatches(f *coredump.Fault, d *coredump.Dump, mappedPC int, mapped bool) bool {
	if f == nil {
		return false
	}
	return mapped && f.Kind == d.Fault.Kind && f.PC == mappedPC &&
		f.Thread == d.Fault.Thread && f.Addr == d.Fault.Addr
}

// runOut continues execution deterministically after the forced schedule:
// runnable threads take turns in rotating tid order for up to
// runOutBlocks blocks, or until a fault or global halt.
func runOut(v *vm.VM, guard *guardSampler) *coredump.Fault {
	cursor := 0
	for n := 0; n < runOutBlocks; n++ {
		tid, ok := nextRunnable(v, cursor)
		if !ok {
			return nil
		}
		cursor = tid + 1
		t := v.Thread(tid)
		block, err := v.P.BlockAt(t.PC)
		if err != nil {
			return nil
		}
		f := v.ExecBlock(tid)
		guard.sample(tid, block)
		if f != nil && f.Kind != coredump.FaultNone {
			return f
		}
	}
	return nil
}

// nextRunnable picks the first runnable thread at or after cursor,
// wrapping around; deterministic for a given machine state.
func nextRunnable(v *vm.VM, cursor int) (int, bool) {
	n := len(v.Threads)
	if n == 0 {
		return 0, false
	}
	for i := 0; i < n; i++ {
		t := v.Threads[(cursor+i)%n]
		if t.State == coredump.ThreadRunnable {
			return t.ID, true
		}
	}
	return 0, false
}

// residualConstraint builds the original fault's firing condition at its
// mapped site over the sampled register state. ok is false when the
// fault kind has no register-level guard to evaluate.
func residualConstraint(p *prog.Program, pc int, kind coredump.FaultKind, regs [isa.NumRegs]int64) (solver.Constraint, bool) {
	if pc < 0 || pc >= len(p.Code) {
		return solver.Constraint{}, false
	}
	in := p.Code[pc]
	switch kind {
	case coredump.FaultAssert:
		if in.Op == isa.OpAssert {
			return solver.Falsy(symx.Const(regs[in.Rs1])), true
		}
	case coredump.FaultDivByZero:
		if in.Op == isa.OpDiv || in.Op == isa.OpMod {
			return solver.Eq(symx.Const(regs[in.Rs2]), symx.Const(0)), true
		}
	case coredump.FaultNullDeref:
		switch in.Op {
		case isa.OpLoad:
			return solver.Eq(symx.Const(regs[in.Rs1]+in.Imm), symx.Const(0)), true
		case isa.OpStore:
			return solver.Eq(symx.Const(regs[in.Rs2]+in.Imm), symx.Const(0)), true
		}
	}
	return solver.Constraint{}, false
}
