// Package coredump models the snapshot of a failed execution: the full
// memory image, per-thread register files, lock table, heap metadata, the
// fault descriptor, and the cheap post-crash breadcrumbs the paper
// describes (output-log tail and the hardware last-branch-record ring).
//
// A Dump is the sole runtime input to RES: there is no recorded trace.
package coredump

import (
	"fmt"

	"res/internal/isa"
	"res/internal/mem"
	"res/internal/prog"
)

// FaultKind classifies why the execution stopped.
type FaultKind uint8

const (
	FaultNone         FaultKind = iota
	FaultNullDeref              // access inside the null guard page
	FaultOOB                    // access outside mapped memory
	FaultHeapOOB                // checked-mode access outside any live object
	FaultUseAfterFree           // checked-mode access to a freed object
	FaultDoubleFree
	FaultBadFree // free of a non-object address
	FaultDivByZero
	FaultAssert
	FaultDeadlock  // all live threads blocked on locks
	FaultBadUnlock // unlock of a mutex not held by the thread
	FaultRelock    // lock of a mutex already held by the thread
	FaultStackOverflow
	FaultBadJump     // control transferred outside the code
	FaultOutOfMemory // heap exhausted
	FaultBudget      // execution budget exhausted (not a program failure)
)

var faultNames = map[FaultKind]string{
	FaultNone: "none", FaultNullDeref: "null-deref", FaultOOB: "out-of-bounds",
	FaultHeapOOB: "heap-out-of-bounds", FaultUseAfterFree: "use-after-free",
	FaultDoubleFree: "double-free", FaultBadFree: "bad-free",
	FaultDivByZero: "div-by-zero", FaultAssert: "assert-failed",
	FaultDeadlock: "deadlock", FaultBadUnlock: "bad-unlock",
	FaultRelock: "relock", FaultStackOverflow: "stack-overflow",
	FaultBadJump: "bad-jump", FaultOutOfMemory: "out-of-memory",
	FaultBudget: "budget-exhausted",
}

func (k FaultKind) String() string {
	if s, ok := faultNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Fault describes the failure that produced the dump.
type Fault struct {
	Kind   FaultKind
	Thread int    // faulting thread id (-1 for deadlock/budget)
	PC     int    // faulting instruction index
	Addr   uint32 // offending address, when applicable
	Detail string
}

func (f Fault) String() string {
	s := fmt.Sprintf("%v at pc=%d tid=%d", f.Kind, f.PC, f.Thread)
	if f.Addr != 0 {
		s += fmt.Sprintf(" addr=%d", f.Addr)
	}
	if f.Detail != "" {
		s += " (" + f.Detail + ")"
	}
	return s
}

// Same reports whether two faults are the same failure: kind, thread,
// pc and address. Detail is free text and is not compared.
func (f Fault) Same(o Fault) bool {
	return f.Kind == o.Kind && f.Thread == o.Thread && f.PC == o.PC && f.Addr == o.Addr
}

// ThreadState is the scheduling state of a thread at dump time.
type ThreadState uint8

const (
	ThreadRunnable ThreadState = iota
	ThreadBlocked              // waiting on a mutex
	ThreadExited
)

func (s ThreadState) String() string {
	switch s {
	case ThreadRunnable:
		return "runnable"
	case ThreadBlocked:
		return "blocked"
	case ThreadExited:
		return "exited"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Thread is the register file and scheduling state of one thread.
type Thread struct {
	ID       int
	Regs     [isa.NumRegs]int64
	PC       int
	State    ThreadState
	WaitAddr uint32 // mutex address when State == ThreadBlocked
}

// HeapObject is the allocator's record of one allocation.
type HeapObject struct {
	Base    uint32
	Size    uint32
	Freed   bool
	AllocPC int
	FreePC  int
}

// Contains reports whether addr falls inside the object.
func (h HeapObject) Contains(addr uint32) bool {
	return addr >= h.Base && addr < h.Base+h.Size
}

// OutputRec is one entry of the program's output log ("existing error
// logs" in the paper's breadcrumb discussion).
type OutputRec struct {
	PC    int
	Tag   int64
	Value int64
}

// BranchRec is one LBR entry: a retired control transfer.
type BranchRec struct {
	From int // pc of the transferring instruction
	To   int // destination pc
}

// Dump is the complete post-mortem snapshot.
type Dump struct {
	Mem     *mem.Image
	Threads []Thread
	Locks   map[uint32]int // held mutexes: address -> owner tid
	Heap    []HeapObject
	Fault   Fault

	// Breadcrumbs (cheap to collect after the crash; optional for RES).
	Outputs []OutputRec
	LBR     []BranchRec // oldest first

	// Steps is the number of basic blocks executed before the failure.
	// It is diagnostic metadata (used by experiment harnesses to report
	// execution length); RES never reads it.
	Steps uint64
}

// Clone returns a deep copy of the dump.
func (d *Dump) Clone() *Dump {
	nd := &Dump{
		Mem:     d.Mem.Clone(),
		Threads: append([]Thread(nil), d.Threads...),
		Locks:   make(map[uint32]int, len(d.Locks)),
		Heap:    append([]HeapObject(nil), d.Heap...),
		Fault:   d.Fault,
		Outputs: append([]OutputRec(nil), d.Outputs...),
		LBR:     append([]BranchRec(nil), d.LBR...),
		Steps:   d.Steps,
	}
	for k, v := range d.Locks {
		nd.Locks[k] = v
	}
	return nd
}

// Thread returns the thread record with the given id.
func (d *Dump) Thread(id int) (*Thread, error) {
	for i := range d.Threads {
		if d.Threads[i].ID == id {
			return &d.Threads[i], nil
		}
	}
	return nil, fmt.Errorf("coredump: no thread %d", id)
}

// FaultingThread returns the thread that faulted, or nil for global faults
// (deadlock, budget).
func (d *Dump) FaultingThread() *Thread {
	t, err := d.Thread(d.Fault.Thread)
	if err != nil {
		return nil
	}
	return t
}

// LiveObjectAt returns the live heap object containing addr, if any.
func (d *Dump) LiveObjectAt(addr uint32) (HeapObject, bool) {
	for _, h := range d.Heap {
		if !h.Freed && h.Contains(addr) {
			return h, true
		}
	}
	return HeapObject{}, false
}

// Frame is one reconstructed stack frame.
type Frame struct {
	Func   string
	PC     int // pc within the function: the faulting pc for the top
	CallPC int // pc of the call instruction for non-top frames, -1 for top
}

// Walk reconstructs the call stack of thread tid using the return
// addresses stored in stack memory, exactly as a debugger would: scan from
// SP toward the stack top, treating any word w for which code[w-1] is a
// CALL instruction as a return address. This heuristic is what WER-style
// call-stack bucketing consumes.
func (d *Dump) Walk(p *prog.Program, tid int) ([]Frame, error) {
	t, err := d.Thread(tid)
	if err != nil {
		return nil, err
	}
	var frames []Frame
	fn, err := p.FuncAt(t.PC)
	if err != nil {
		return nil, fmt.Errorf("coredump: thread %d pc %d: %w", tid, t.PC, err)
	}
	frames = append(frames, Frame{Func: fn.Name, PC: t.PC, CallPC: -1})

	sp := uint64(t.Regs[isa.SP])
	top := uint64(p.Layout.StackTop(tid))
	for a := sp; a < top; a++ {
		if a >= uint64(d.Mem.Size()) {
			break
		}
		w := d.Mem.Load(uint32(a))
		if w <= 0 || w > int64(len(p.Code)) {
			continue
		}
		ret := int(w)
		if ret-1 < 0 || ret-1 >= len(p.Code) {
			continue
		}
		if p.Code[ret-1].Op != isa.OpCall {
			continue
		}
		cfn, err := p.FuncAt(ret - 1)
		if err != nil {
			continue
		}
		frames = append(frames, Frame{Func: cfn.Name, PC: ret, CallPC: ret - 1})
		const maxFrames = 64
		if len(frames) >= maxFrames {
			break
		}
	}
	return frames, nil
}

// StackKey renders the walked stack as a bucketing key: the fault kind plus
// the function names and call sites, mirroring WER's "bucket by failure
// point and stack" heuristic.
func StackKey(fault Fault, frames []Frame) string {
	key := fault.Kind.String()
	for _, f := range frames {
		key += fmt.Sprintf("|%s+%d", f.Func, f.CallPC)
	}
	return key
}
