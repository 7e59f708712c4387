// Package vm implements the concrete multithreaded interpreter for the RES
// instruction set. It is the "production system" of the reproduction:
// programs run here with no recording beyond the free breadcrumbs the
// paper allows (an LBR-style branch ring and the program's own output
// log), and on failure the VM captures a coredump.
//
// Scheduling is deterministic given a seed and switches threads only at
// basic-block boundaries (and at blocking operations), which realizes the
// sequential-consistency, block-granularity schedule model the paper's
// prototype assumes (§4).
package vm

import (
	"fmt"
	"math/rand"

	"res/internal/coredump"
	"res/internal/isa"
	"res/internal/mem"
	"res/internal/prog"
	"res/internal/trace"
)

// DefaultLBRSize mirrors the 16-entry Last Branch Record of Intel CPUs
// that the paper proposes as a free breadcrumb source.
const DefaultLBRSize = 16

// Config controls one execution.
type Config struct {
	// Seed drives the deterministic scheduler.
	Seed int64
	// MaxSteps bounds the number of basic blocks executed; 0 means the
	// package default (100 million).
	MaxSteps uint64
	// Inputs provides the values returned by INPUT per channel, in order.
	// Exhausted channels return 0 (EOF convention).
	Inputs map[int64][]int64
	// CheckHeap enables allocator bounds/liveness checking (a debug-build
	// behaviour). Production runs leave it false: overflows corrupt
	// memory silently and the crash happens later, which is exactly the
	// scenario RES exists for. The replayer turns it on to pinpoint
	// root causes.
	CheckHeap bool
	// LBRSize is the branch-ring capacity; 0 means DefaultLBRSize,
	// negative disables the ring.
	LBRSize int
	// LBRSkipConditional simulates the paper's filtered-LBR hardware
	// extension: conditional branches are not recorded, so the ring's
	// slots cover more history.
	LBRSkipConditional bool
	// PreemptPct is the percentage chance (0..100) that the scheduler
	// switches away from a runnable thread at a block boundary. 0 keeps
	// threads running until they block or exit.
	PreemptPct int
	// Hooks observe execution; the replay-time root-cause detectors use
	// them. All hooks may be nil.
	Hooks Hooks
}

// Hooks are optional observation points.
type Hooks struct {
	// OnAccess fires for every successful data memory access.
	OnAccess func(tid, pc int, addr uint32, write bool)
	// OnLock fires on successful lock (acquire=true) and unlock.
	OnLock func(tid, pc int, addr uint32, acquire bool)
	// OnBlockStart fires when a thread begins executing a block.
	OnBlockStart func(tid, block int)
	// OnBranch fires for every retired control transfer (jmp/br/call/ret),
	// regardless of the LBR ring configuration. The evidence recorder uses
	// it to collect partial branch traces.
	OnBranch func(from, to int)
	// OnInput fires for every INPUT instruction with the value it
	// returned (including the 0 EOF convention). The checkpoint recorder
	// uses it to log post-checkpoint inputs for deterministic resume.
	OnInput func(tid int, channel, value int64)
}

// MergeHooks composes hook sets: each callback fires every non-nil
// handler in argument order. Recorders that each need their own hooks
// (evidence, checkpoints) are combined this way in one Config.
func MergeHooks(hs ...Hooks) Hooks {
	var out Hooks
	for _, h := range hs {
		h := h
		if h.OnAccess != nil {
			prev := out.OnAccess
			cur := h.OnAccess
			out.OnAccess = func(tid, pc int, addr uint32, write bool) {
				if prev != nil {
					prev(tid, pc, addr, write)
				}
				cur(tid, pc, addr, write)
			}
		}
		if h.OnLock != nil {
			prev := out.OnLock
			cur := h.OnLock
			out.OnLock = func(tid, pc int, addr uint32, acquire bool) {
				if prev != nil {
					prev(tid, pc, addr, acquire)
				}
				cur(tid, pc, addr, acquire)
			}
		}
		if h.OnBlockStart != nil {
			prev := out.OnBlockStart
			cur := h.OnBlockStart
			out.OnBlockStart = func(tid, block int) {
				if prev != nil {
					prev(tid, block)
				}
				cur(tid, block)
			}
		}
		if h.OnBranch != nil {
			prev := out.OnBranch
			cur := h.OnBranch
			out.OnBranch = func(from, to int) {
				if prev != nil {
					prev(from, to)
				}
				cur(from, to)
			}
		}
		if h.OnInput != nil {
			prev := out.OnInput
			cur := h.OnInput
			out.OnInput = func(tid int, channel, value int64) {
				if prev != nil {
					prev(tid, channel, value)
				}
				cur(tid, channel, value)
			}
		}
	}
	return out
}

func (c Config) maxSteps() uint64 {
	if c.MaxSteps == 0 {
		return 100_000_000
	}
	return c.MaxSteps
}

// Thread is one live thread of the VM.
type Thread struct {
	ID       int
	Regs     [isa.NumRegs]int64
	PC       int
	State    coredump.ThreadState
	WaitAddr uint32
}

// VM is an interpreter instance. Create with New or NewFromState. Run
// lets the seeded scheduler pick threads; Follow forces a schedule (every
// forward replay does); ExecBlock runs one block (the debugger steps).
type VM struct {
	P   *prog.Program
	Mem *mem.Image

	Threads  []*Thread
	locks    map[uint32]int
	heap     []coredump.HeapObject
	heapNext uint32

	inputs   map[int64][]int64
	inputPos map[int64]int
	outputs  []coredump.OutputRec

	lbr     []coredump.BranchRec
	lbrSize int

	steps uint64
	rng   *rand.Rand // nil until intn first draws; a forced schedule never does
	cfg   Config
}

// New creates a VM for the program with globals initialized and thread 0
// parked at main's entry.
func New(p *prog.Program, cfg Config) (*VM, error) {
	entry, err := p.Entry()
	if err != nil {
		return nil, err
	}
	v := &VM{
		P:        p,
		Mem:      mem.NewImage(p.Layout.MemSize),
		locks:    make(map[uint32]int),
		heapNext: p.Layout.HeapBase,
		inputs:   cfg.Inputs,
		inputPos: make(map[int64]int),
		lbrSize:  cfg.LBRSize,
		cfg:      cfg,
	}
	if v.lbrSize == 0 {
		v.lbrSize = DefaultLBRSize
	}
	for _, g := range p.Globals {
		for i, val := range g.Init {
			v.Mem.Store(g.Addr+uint32(i), val)
		}
	}
	t := &Thread{ID: 0, PC: entry}
	t.Regs[isa.SP] = int64(p.Layout.StackTop(0))
	v.Threads = append(v.Threads, t)
	return v, nil
}

// State describes a complete machine state to resume from; the replayer
// instantiates RES's inferred pre-image Mi this way (the paper's "special
// environment slipped underneath the debugger").
type State struct {
	Mem      *mem.Image
	Threads  []Thread
	Locks    map[uint32]int
	Heap     []coredump.HeapObject
	HeapNext uint32
}

// NewFromState creates a VM resuming from an arbitrary machine state. The
// VM takes st.Mem and writes to it: pass an image nothing else writes,
// such as a Clone, which copies a shared page only when the VM first
// writes it.
func NewFromState(p *prog.Program, cfg Config, st State) (*VM, error) {
	if st.Mem == nil {
		return nil, fmt.Errorf("vm: state has no memory image")
	}
	if st.Mem.Size() != p.Layout.MemSize {
		return nil, fmt.Errorf("vm: state memory size %d does not match layout %d", st.Mem.Size(), p.Layout.MemSize)
	}
	v := &VM{
		P:        p,
		Mem:      st.Mem,
		locks:    make(map[uint32]int, len(st.Locks)),
		heap:     append([]coredump.HeapObject(nil), st.Heap...),
		heapNext: st.HeapNext,
		inputs:   cfg.Inputs,
		inputPos: make(map[int64]int),
		lbrSize:  cfg.LBRSize,
		cfg:      cfg,
	}
	if v.lbrSize == 0 {
		v.lbrSize = DefaultLBRSize
	}
	if v.heapNext == 0 {
		v.heapNext = p.Layout.HeapBase
	}
	for a, o := range st.Locks {
		v.locks[a] = o
	}
	// Threads must be registered densely by id, mirroring spawn order.
	byID := make(map[int]Thread, len(st.Threads))
	maxID := -1
	for _, t := range st.Threads {
		byID[t.ID] = t
		if t.ID > maxID {
			maxID = t.ID
		}
	}
	for id := 0; id <= maxID; id++ {
		t, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("vm: state thread ids not dense (missing %d)", id)
		}
		nt := t
		v.Threads = append(v.Threads, &nt)
	}
	if len(v.Threads) == 0 {
		return nil, fmt.Errorf("vm: state has no threads")
	}
	return v, nil
}

// CaptureState deep-copies the resumable machine state other than
// memory, which it leaves nil: the caller copies v.Mem in the form it
// keeps (the checkpoint recorder keeps its nonzero words). With Mem set
// to a copy of v.Mem, feeding the state to NewFromState (with the same
// inputs and a forced schedule) resumes the execution bit-exactly. The
// recorder calls it at block boundaries, where the state is well-defined
// (no instruction is mid-flight).
func (v *VM) CaptureState() State {
	st := State{
		Locks:    make(map[uint32]int, len(v.locks)),
		Heap:     append([]coredump.HeapObject(nil), v.heap...),
		HeapNext: v.heapNext,
	}
	for a, o := range v.locks {
		st.Locks[a] = o
	}
	for _, t := range v.Threads {
		st.Threads = append(st.Threads, *t)
	}
	return st
}

// Steps returns the number of basic blocks executed so far.
func (v *VM) Steps() uint64 { return v.steps }

// Thread returns the thread with the given id, or nil.
func (v *VM) Thread(id int) *Thread {
	if id >= 0 && id < len(v.Threads) {
		return v.Threads[id]
	}
	return nil
}

// Run executes the program to completion, failure, or budget exhaustion.
// It returns a coredump if the execution failed (including deadlock and
// budget exhaustion) and nil on a clean exit.
func (v *VM) Run() (*coredump.Dump, error) {
	cur := 0
	for {
		if v.steps >= v.cfg.maxSteps() {
			return v.capture(coredump.Fault{Kind: coredump.FaultBudget, Thread: -1, PC: -1}), nil
		}
		tid, ok := v.pick(cur)
		if !ok {
			if v.anyBlocked() {
				return v.capture(coredump.Fault{Kind: coredump.FaultDeadlock, Thread: -1, PC: -1, Detail: v.blockedDetail()}), nil
			}
			return nil, nil // clean exit
		}
		cur = tid
		if f := v.ExecBlock(tid); f != nil {
			if f.Kind == coredump.FaultNone {
				continue // lock contention: nothing ran
			}
			return v.capture(*f), nil
		}
	}
}

// pick selects the next thread to run. It keeps the current thread with
// probability (100-PreemptPct)% if it is still runnable, otherwise picks
// uniformly among runnable threads.
func (v *VM) pick(cur int) (int, bool) {
	var runnable []int
	for _, t := range v.Threads {
		if t.State == coredump.ThreadRunnable {
			runnable = append(runnable, t.ID)
		}
	}
	if len(runnable) == 0 {
		return 0, false
	}
	if cur < len(v.Threads) && v.Threads[cur].State == coredump.ThreadRunnable {
		if v.cfg.PreemptPct <= 0 || v.intn(100) >= v.cfg.PreemptPct || len(runnable) == 1 {
			return cur, true
		}
	}
	return runnable[v.intn(len(runnable))], true
}

// intn draws from the scheduler's source, seeding it on first use.
func (v *VM) intn(n int) int {
	if v.rng == nil {
		v.rng = rand.New(rand.NewSource(v.cfg.Seed))
	}
	return v.rng.Intn(n)
}

func (v *VM) anyBlocked() bool {
	for _, t := range v.Threads {
		if t.State == coredump.ThreadBlocked {
			return true
		}
	}
	return false
}

func (v *VM) blockedDetail() string {
	s := ""
	for _, t := range v.Threads {
		if t.State == coredump.ThreadBlocked {
			if s != "" {
				s += ", "
			}
			s += fmt.Sprintf("t%d waits on %d (held by t%d)", t.ID, t.WaitAddr, v.locks[t.WaitAddr])
		}
	}
	return s
}

// ExecBlock runs thread tid from its current pc to the end of its basic
// block. It returns nil on success, a Fault with Kind FaultNone if the
// thread parked on a contended lock without executing anything, or the
// fault that stopped execution. The faulting instruction's side effects
// are not applied.
func (v *VM) ExecBlock(tid int) *coredump.Fault {
	t := v.Threads[tid]
	if t.State != coredump.ThreadRunnable {
		return &coredump.Fault{Kind: coredump.FaultBadJump, Thread: tid, PC: t.PC, Detail: "scheduling non-runnable thread"}
	}
	block, err := v.P.BlockAt(t.PC)
	if err != nil {
		return &coredump.Fault{Kind: coredump.FaultBadJump, Thread: tid, PC: t.PC, Detail: err.Error()}
	}
	// Contended lock: park without running and without counting a step.
	term := block.Terminator(v.P.Code)
	if term.Op == isa.OpLock && block.End-block.Start == 1 {
		addr := uint64(t.Regs[term.Rs1])
		if owner, held := v.lockOwner(addr); held && owner != tid {
			t.State = coredump.ThreadBlocked
			t.WaitAddr = uint32(addr)
			return &coredump.Fault{Kind: coredump.FaultNone}
		}
	}
	v.steps++
	if v.cfg.Hooks.OnBlockStart != nil {
		v.cfg.Hooks.OnBlockStart(tid, block.ID)
	}
	for pc := block.Start; pc < block.End; pc++ {
		t.PC = pc
		transferred, f := v.execInstr(t, &v.P.Code[pc])
		if f != nil {
			return f
		}
		if transferred {
			break
		}
		t.PC = pc + 1
	}
	return nil
}

// Follow forces a schedule onto the machine. For each step, the step's
// thread must exist and stand at the step's block, which then runs. It
// stops at the first fault and returns that step's index with the
// fault; without one it returns len(steps). It fails, returning the
// step's index, at the first step it cannot follow: the thread is
// missing, stands at another block, or blocked on a lock.
func (v *VM) Follow(steps []trace.Step) (int, *coredump.Fault, error) {
	for i, s := range steps {
		t := v.Thread(s.Tid)
		if t == nil {
			return i, nil, fmt.Errorf("thread %d does not exist", s.Tid)
		}
		block, err := v.P.BlockAt(t.PC)
		if err != nil {
			return i, nil, err
		}
		if block.ID != s.Block {
			return i, nil, fmt.Errorf("thread %d at block %d, schedule says %d", s.Tid, block.ID, s.Block)
		}
		f := v.ExecBlock(s.Tid)
		if f == nil {
			continue
		}
		if f.Kind == coredump.FaultNone {
			return i, nil, fmt.Errorf("scheduled thread %d blocked on a lock", s.Tid)
		}
		return i, f, nil
	}
	return len(steps), nil, nil
}

func (v *VM) lockOwner(addr uint64) (int, bool) {
	if addr > uint64(^uint32(0)) {
		return 0, false
	}
	owner, held := v.locks[uint32(addr)]
	return owner, held
}

// checkAccess validates a data memory access and returns a fault if it is
// illegal. addr is the raw computed address (may be negative).
func (v *VM) checkAccess(t *Thread, pc int, addr int64) *coredump.Fault {
	lay := v.P.Layout
	if addr < 0 || addr >= int64(lay.MemSize) {
		return &coredump.Fault{Kind: coredump.FaultOOB, Thread: t.ID, PC: pc, Addr: uint32(addr & 0xffffffff), Detail: fmt.Sprintf("address %d outside memory", addr)}
	}
	a := uint32(addr)
	if a < lay.GlobalBase {
		return &coredump.Fault{Kind: coredump.FaultNullDeref, Thread: t.ID, PC: pc, Addr: a}
	}
	if v.cfg.CheckHeap && a >= lay.HeapBase && a < lay.HeapLimit() {
		// Heap region: must be inside a live object. The bump allocator
		// never reuses addresses, so at most one object contains a.
		for i := len(v.heap) - 1; i >= 0; i-- {
			h := v.heap[i]
			if h.Contains(a) {
				if h.Freed {
					return &coredump.Fault{Kind: coredump.FaultUseAfterFree, Thread: t.ID, PC: pc, Addr: a, Detail: fmt.Sprintf("object [%d,%d) freed at pc %d", h.Base, h.Base+h.Size, h.FreePC)}
				}
				return nil
			}
		}
		return &coredump.Fault{Kind: coredump.FaultHeapOOB, Thread: t.ID, PC: pc, Addr: a}
	}
	return nil
}

func (v *VM) recordBranch(from, to int) {
	if v.cfg.Hooks.OnBranch != nil {
		v.cfg.Hooks.OnBranch(from, to)
	}
	if v.lbrSize < 0 {
		return
	}
	if v.cfg.LBRSkipConditional && v.P.Code[from].Op == isa.OpBr {
		return
	}
	v.lbr = append(v.lbr, coredump.BranchRec{From: from, To: to})
	if len(v.lbr) > v.lbrSize {
		v.lbr = v.lbr[1:]
	}
}

// execInstr applies one instruction. It reports whether the instruction
// transferred control (in which case it set t.PC itself, possibly to the
// same pc for a self-jump) and any fault.
func (v *VM) execInstr(t *Thread, in *isa.Instr) (bool, *coredump.Fault) {
	pc := t.PC
	r := &t.Regs
	switch in.Op {
	case isa.OpNop:
	case isa.OpConst:
		r[in.Rd] = in.Imm
	case isa.OpMov:
		r[in.Rd] = r[in.Rs1]
	case isa.OpAdd:
		r[in.Rd] = r[in.Rs1] + r[in.Rs2]
	case isa.OpSub:
		r[in.Rd] = r[in.Rs1] - r[in.Rs2]
	case isa.OpMul:
		r[in.Rd] = r[in.Rs1] * r[in.Rs2]
	case isa.OpDiv:
		if r[in.Rs2] == 0 {
			return false, &coredump.Fault{Kind: coredump.FaultDivByZero, Thread: t.ID, PC: pc}
		}
		r[in.Rd] = r[in.Rs1] / r[in.Rs2]
	case isa.OpMod:
		if r[in.Rs2] == 0 {
			return false, &coredump.Fault{Kind: coredump.FaultDivByZero, Thread: t.ID, PC: pc}
		}
		r[in.Rd] = r[in.Rs1] % r[in.Rs2]
	case isa.OpAnd:
		r[in.Rd] = r[in.Rs1] & r[in.Rs2]
	case isa.OpOr:
		r[in.Rd] = r[in.Rs1] | r[in.Rs2]
	case isa.OpXor:
		r[in.Rd] = r[in.Rs1] ^ r[in.Rs2]
	case isa.OpShl:
		r[in.Rd] = r[in.Rs1] << (uint64(r[in.Rs2]) & 63)
	case isa.OpShr:
		r[in.Rd] = r[in.Rs1] >> (uint64(r[in.Rs2]) & 63)
	case isa.OpAddI:
		r[in.Rd] = r[in.Rs1] + in.Imm
	case isa.OpMulI:
		r[in.Rd] = r[in.Rs1] * in.Imm
	case isa.OpAndI:
		r[in.Rd] = r[in.Rs1] & in.Imm
	case isa.OpXorI:
		r[in.Rd] = r[in.Rs1] ^ in.Imm
	case isa.OpNot:
		r[in.Rd] = ^r[in.Rs1]
	case isa.OpNeg:
		r[in.Rd] = -r[in.Rs1]
	case isa.OpCmpEq:
		r[in.Rd] = b2i(r[in.Rs1] == r[in.Rs2])
	case isa.OpCmpNe:
		r[in.Rd] = b2i(r[in.Rs1] != r[in.Rs2])
	case isa.OpCmpLt:
		r[in.Rd] = b2i(r[in.Rs1] < r[in.Rs2])
	case isa.OpCmpLe:
		r[in.Rd] = b2i(r[in.Rs1] <= r[in.Rs2])

	case isa.OpLoad, isa.OpLoadG:
		addr := in.Imm
		if in.Op == isa.OpLoad {
			addr += r[in.Rs1]
		}
		if f := v.checkAccess(t, pc, addr); f != nil {
			return false, f
		}
		if v.cfg.Hooks.OnAccess != nil {
			v.cfg.Hooks.OnAccess(t.ID, pc, uint32(addr), false)
		}
		r[in.Rd] = v.Mem.Load(uint32(addr))
	case isa.OpStore, isa.OpStoreG:
		addr := in.Imm
		val := r[in.Rs1]
		if in.Op == isa.OpStore {
			addr += r[in.Rs1]
			val = r[in.Rs2]
		}
		if f := v.checkAccess(t, pc, addr); f != nil {
			return false, f
		}
		if v.cfg.Hooks.OnAccess != nil {
			v.cfg.Hooks.OnAccess(t.ID, pc, uint32(addr), true)
		}
		v.Mem.Store(uint32(addr), val)

	case isa.OpJmp:
		v.recordBranch(pc, in.Target)
		t.PC = in.Target
		return true, nil
	case isa.OpBr:
		dst := in.Target2
		if r[in.Rs1] != 0 {
			dst = in.Target
		}
		v.recordBranch(pc, dst)
		t.PC = dst
		return true, nil
	case isa.OpCall:
		sp := r[isa.SP] - 1
		if sp < int64(v.P.Layout.StackFloor(t.ID)) {
			return false, &coredump.Fault{Kind: coredump.FaultStackOverflow, Thread: t.ID, PC: pc, Addr: uint32(sp & 0xffffffff)}
		}
		if f := v.checkAccess(t, pc, sp); f != nil {
			return false, f
		}
		v.Mem.Store(uint32(sp), int64(pc+1))
		r[isa.SP] = sp
		v.recordBranch(pc, in.Target)
		t.PC = in.Target
		return true, nil
	case isa.OpRet:
		sp := r[isa.SP]
		if f := v.checkAccess(t, pc, sp); f != nil {
			return false, f
		}
		ret := v.Mem.Load(uint32(sp))
		if ret < 0 || ret >= int64(len(v.P.Code)) {
			return false, &coredump.Fault{Kind: coredump.FaultBadJump, Thread: t.ID, PC: pc, Detail: fmt.Sprintf("return address %d", ret)}
		}
		r[isa.SP] = sp + 1
		v.recordBranch(pc, int(ret))
		t.PC = int(ret)
		return true, nil

	case isa.OpAlloc:
		size := r[in.Rs1]
		if size <= 0 || size > int64(v.P.Layout.HeapLimit()-v.P.Layout.HeapBase) {
			return false, &coredump.Fault{Kind: coredump.FaultOutOfMemory, Thread: t.ID, PC: pc, Detail: fmt.Sprintf("bad allocation size %d", size)}
		}
		base := v.heapNext + prog.HeapRedzone
		if base+uint32(size) > v.P.Layout.HeapLimit() {
			return false, &coredump.Fault{Kind: coredump.FaultOutOfMemory, Thread: t.ID, PC: pc}
		}
		v.heap = append(v.heap, coredump.HeapObject{Base: base, Size: uint32(size), AllocPC: pc, FreePC: -1})
		r[in.Rd] = int64(base)
		v.heapNext = base + uint32(size)
	case isa.OpFree:
		base := r[in.Rs1]
		found := false
		for i := range v.heap {
			if int64(v.heap[i].Base) == base {
				if v.heap[i].Freed {
					return false, &coredump.Fault{Kind: coredump.FaultDoubleFree, Thread: t.ID, PC: pc, Addr: uint32(base & 0xffffffff)}
				}
				v.heap[i].Freed = true
				v.heap[i].FreePC = pc
				found = true
				break
			}
		}
		if !found {
			return false, &coredump.Fault{Kind: coredump.FaultBadFree, Thread: t.ID, PC: pc, Addr: uint32(base & 0xffffffff)}
		}

	case isa.OpSpawn:
		if len(v.Threads) >= v.P.Layout.MaxThreads {
			return false, &coredump.Fault{Kind: coredump.FaultOutOfMemory, Thread: t.ID, PC: pc, Detail: "too many threads"}
		}
		nt := &Thread{ID: len(v.Threads), PC: in.Target}
		nt.Regs[0] = r[in.Rs1]
		nt.Regs[isa.SP] = int64(v.P.Layout.StackTop(nt.ID))
		v.Threads = append(v.Threads, nt)
		t.PC = pc + 1
		return true, nil
	case isa.OpYield:
		t.PC = pc + 1
		return true, nil
	case isa.OpLock:
		addr := r[in.Rs1]
		if f := v.checkAccess(t, pc, addr); f != nil {
			return false, f
		}
		a := uint32(addr)
		if owner, held := v.locks[a]; held {
			if owner == t.ID {
				return false, &coredump.Fault{Kind: coredump.FaultRelock, Thread: t.ID, PC: pc, Addr: a}
			}
			// Contention is normally intercepted in ExecBlock before the
			// block runs; reaching here means a forced schedule ran a
			// blocked acquire — report it as deadlock-class.
			return false, &coredump.Fault{Kind: coredump.FaultDeadlock, Thread: t.ID, PC: pc, Addr: a, Detail: "forced acquire of held mutex"}
		}
		v.locks[a] = t.ID
		if v.cfg.Hooks.OnLock != nil {
			v.cfg.Hooks.OnLock(t.ID, pc, a, true)
		}
		t.PC = pc + 1
		return true, nil
	case isa.OpUnlock:
		addr := r[in.Rs1]
		if f := v.checkAccess(t, pc, addr); f != nil {
			return false, f
		}
		a := uint32(addr)
		if owner, held := v.locks[a]; !held || owner != t.ID {
			return false, &coredump.Fault{Kind: coredump.FaultBadUnlock, Thread: t.ID, PC: pc, Addr: a}
		}
		delete(v.locks, a)
		if v.cfg.Hooks.OnLock != nil {
			v.cfg.Hooks.OnLock(t.ID, pc, a, false)
		}
		v.wake(a)

	case isa.OpInput:
		val := int64(0)
		ch := in.Imm
		if vals, ok := v.inputs[ch]; ok && v.inputPos[ch] < len(vals) {
			val = vals[v.inputPos[ch]]
			v.inputPos[ch]++
		}
		r[in.Rd] = val
		if v.cfg.Hooks.OnInput != nil {
			v.cfg.Hooks.OnInput(t.ID, ch, val)
		}
	case isa.OpOutput:
		v.outputs = append(v.outputs, coredump.OutputRec{PC: pc, Tag: in.Imm, Value: r[in.Rs1]})
	case isa.OpAssert:
		if r[in.Rs1] == 0 {
			return false, &coredump.Fault{Kind: coredump.FaultAssert, Thread: t.ID, PC: pc}
		}
	case isa.OpHalt:
		t.State = coredump.ThreadExited
		return true, nil
	default:
		return false, &coredump.Fault{Kind: coredump.FaultBadJump, Thread: t.ID, PC: pc, Detail: fmt.Sprintf("unimplemented opcode %v", in.Op)}
	}
	return false, nil
}

// wake moves threads blocked on mutex addr back to runnable.
func (v *VM) wake(addr uint32) {
	for _, t := range v.Threads {
		if t.State == coredump.ThreadBlocked && t.WaitAddr == addr {
			t.State = coredump.ThreadRunnable
			t.WaitAddr = 0
		}
	}
}

// capture snapshots the VM into a coredump.
func (v *VM) capture(f coredump.Fault) *coredump.Dump {
	d := &coredump.Dump{
		Mem:     v.Mem.Clone(),
		Locks:   make(map[uint32]int, len(v.locks)),
		Heap:    append([]coredump.HeapObject(nil), v.heap...),
		Fault:   f,
		Outputs: append([]coredump.OutputRec(nil), v.outputs...),
		LBR:     append([]coredump.BranchRec(nil), v.lbr...),
		Steps:   v.steps,
	}
	for a, o := range v.locks {
		d.Locks[a] = o
	}
	for _, t := range v.Threads {
		d.Threads = append(d.Threads, coredump.Thread{
			ID: t.ID, Regs: t.Regs, PC: t.PC, State: t.State, WaitAddr: t.WaitAddr,
		})
	}
	return d
}

// SameThreads reports whether every thread of the dump exists in the
// machine with the dump's registers and pc. Scheduling states are
// deliberately not compared: a thread the original run parked on a
// contended lock (an uncounted, unlogged transition) is merely still
// runnable in a replay, with identical registers and pc.
func (v *VM) SameThreads(d *coredump.Dump) bool {
	for _, ot := range d.Threads {
		t := v.Thread(ot.ID)
		if t == nil || t.Regs != ot.Regs || t.PC != ot.PC {
			return false
		}
	}
	return true
}

// Outputs returns the output log so far.
func (v *VM) Outputs() []coredump.OutputRec { return v.outputs }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
