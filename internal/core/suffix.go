package core

import (
	"fmt"
	"slices"

	"res/internal/coredump"
	"res/internal/isa"
	"res/internal/mem"
	"res/internal/solver"
	"res/internal/symx"
	"res/internal/trace"
)

// Synthesized is a concretized execution suffix: the paper's output
// <Ti, Mi> — a schedule plus the partial memory image to start from, with
// the external inputs pinned to concrete values by the solver's model.
type Synthesized struct {
	Node   *Node
	Suffix *trace.Suffix

	// The reconstructed pre-state Mi. PreMem is a View of the dump's
	// image with the words the suffix reasoned about stored in it: it
	// owns the pages those words sit in and shares the rest with the
	// dump. Nothing writes it after Concretize; a replay runs on a Clone.
	PreMem      *mem.Image
	PreRegs     map[int][isa.NumRegs]int64
	PreStates   map[int]coredump.ThreadState
	PreLocks    map[uint32]int
	PreHeap     []coredump.HeapObject
	PreHeapNext uint32

	// ReadSet and WriteSet are the resolved data addresses the suffix
	// touches (§3.3: "RES automatically focuses developers' attention on
	// the recently read or written state").
	ReadSet, WriteSet []uint32
}

// Concretize solves the node's constraint system and materializes the
// suffix: schedule, inputs, and the pre-image Mi. The dump supplies the
// failure point (the pc at which the final partial step stops).
func (e *Engine) Concretize(n *Node, d *coredump.Dump) (*Synthesized, error) {
	// A residual-only solve: the snapshot's session has already
	// propagated every constraint on the path.
	res := n.Snap.CheckWith(e.opt.Solver, nil)
	if res.Verdict != solver.Sat {
		return nil, fmt.Errorf("core: node constraints not solvable: %v (%s)", res.Verdict, res.Reason)
	}
	// One resolver for the whole suffix: a definition that several inputs,
	// words and registers share is resolved once.
	eval := res.Evaluator()

	suffix := &trace.Suffix{
		EndPC:    d.Fault.PC,
		StartPCs: make(map[int]int),
	}
	for _, tid := range n.Snap.ThreadIDs() {
		suffix.StartPCs[tid] = n.Snap.Thread(tid).PC
	}
	readSet := make(map[uint32]bool)
	writeSet := make(map[uint32]bool)
	// Walking up from n visits the steps oldest first (see Steps).
	for cur := n; cur.Parent != nil; cur = cur.Parent {
		s := &cur.Step
		suffix.Steps = append(suffix.Steps, trace.Step{Tid: s.Tid, Block: s.Block})
		for _, iu := range s.Inputs {
			v, _ := eval(symx.VarExpr(iu.Var)) // a variable without a value reads 0
			suffix.Inputs = append(suffix.Inputs, trace.InputRec{
				Tid:     s.Tid,
				Channel: iu.Channel,
				Value:   v,
			})
		}
		for _, a := range s.Accesses {
			if a.Write {
				writeSet[a.Addr] = true
			} else {
				readSet[a.Addr] = true
			}
		}
	}

	syn := &Synthesized{
		Node:        n,
		Suffix:      suffix,
		PreMem:      n.Snap.ConcretizeMem(eval),
		PreRegs:     make(map[int][isa.NumRegs]int64),
		PreStates:   make(map[int]coredump.ThreadState),
		PreLocks:    make(map[uint32]int),
		PreHeap:     append([]coredump.HeapObject(nil), n.Snap.Heap...),
		PreHeapNext: n.Snap.HeapNext,
	}
	for _, tid := range n.Snap.ThreadIDs() {
		regs, err := n.Snap.ConcretizeRegs(tid, eval)
		if err != nil {
			return nil, err
		}
		syn.PreRegs[tid] = regs
		syn.PreStates[tid] = n.Snap.Thread(tid).State
	}
	n.Snap.ForEachLock(func(a uint32, o int) {
		syn.PreLocks[a] = o
	})
	for a := range readSet {
		syn.ReadSet = append(syn.ReadSet, a)
	}
	for a := range writeSet {
		syn.WriteSet = append(syn.WriteSet, a)
	}
	slices.Sort(syn.ReadSet)
	slices.Sort(syn.WriteSet)
	return syn, nil
}

// Describe renders a synthesized suffix for human consumption.
func (s *Synthesized) Describe() string {
	out := fmt.Sprintf("%s\n", s.Suffix)
	out += fmt.Sprintf("inputs: %v\n", s.Suffix.Inputs)
	out += fmt.Sprintf("read set: %v\nwrite set: %v\n", s.ReadSet, s.WriteSet)
	return out
}
