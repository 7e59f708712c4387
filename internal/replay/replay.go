// Package replay deterministically re-executes a synthesized suffix: it
// instantiates RES's inferred pre-image Mi in a fresh VM, forces the
// synthesized thread schedule and external inputs, and verifies that the
// execution runs into exactly the failure captured by the original
// coredump. This is the paper's "special environment slipped underneath
// the debugger": to the developer it looks as if the program
// deterministically fails the same way, over and over again.
package replay

import (
	"fmt"

	"res/internal/core"
	"res/internal/coredump"
	"res/internal/prog"
	"res/internal/vm"
)

// Divergence describes how a replay failed to reproduce the coredump.
type Divergence struct {
	Step   int // index into the suffix schedule, -1 for end-state mismatch
	Reason string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("replay diverged at step %d: %s", d.Step, d.Reason)
}

// Result reports a replay.
type Result struct {
	// Matches is true when the replay reproduced the original fault and
	// the final memory and register state equals the coredump.
	Matches bool
	// Fault is the fault the replay ran into (zero if none).
	Fault coredump.Fault
	// MemDiff lists addresses where replayed memory differs from the dump.
	MemDiff []uint32
	// Divergence is non-nil when the forced schedule could not be followed.
	Divergence *Divergence
}

// Config tunes the replay.
type Config struct {
	// CheckHeap turns on allocator checking during replay, which makes
	// silent-in-production heap corruption fault at the corrupting access
	// (how RES pinpoints Figure 1's overflow).
	CheckHeap bool
	// Hooks are passed through to the VM (root-cause detectors use them).
	Hooks vm.Hooks
}

// New builds the replay VM for a synthesized suffix without running it;
// the debugger and fix verification drive it step by step. The VM runs
// on a Clone of the pre-state, which copies only the pages the pre-state
// owns and shares the dump's: the checked replay and its heap-fault
// fallback both start from the same pre-state, and a replay pays for the
// pages it writes. The VM keeps no branch ring: neither Run, the
// debugger nor fix verification ever captures a dump, the ring's only
// reader.
func New(p *prog.Program, syn *core.Synthesized, cfg Config) (*vm.VM, error) {
	st := vm.State{
		Mem:      syn.PreMem.Clone(),
		Locks:    syn.PreLocks,
		Heap:     syn.PreHeap,
		HeapNext: syn.PreHeapNext,
	}
	for tid, regs := range syn.PreRegs {
		st.Threads = append(st.Threads, vm.Thread{
			ID:    tid,
			Regs:  regs,
			PC:    syn.Suffix.StartPCs[tid],
			State: syn.PreStates[tid],
		})
	}
	inputs := make(map[int64][]int64)
	for _, in := range syn.Suffix.Inputs {
		inputs[in.Channel] = append(inputs[in.Channel], in.Value)
	}
	vcfg := vm.Config{
		Inputs:    inputs,
		CheckHeap: cfg.CheckHeap,
		LBRSize:   -1,
		Hooks:     cfg.Hooks,
	}
	return vm.NewFromState(p, vcfg, st)
}

// Run replays the suffix against the original dump.
func Run(p *prog.Program, syn *core.Synthesized, original *coredump.Dump, cfg Config) (*Result, error) {
	v, err := New(p, syn, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	steps := syn.Suffix.Steps
	i, f, err := v.Follow(steps)
	if err != nil {
		res.Divergence = &Divergence{Step: i, Reason: err.Error()}
		return res, nil
	}
	if f == nil {
		// No fault surfaced. For global faults (deadlock) verify the end
		// state instead.
		if original.Fault.Thread < 0 {
			res.Fault = original.Fault
			res.MemDiff = v.Mem.Diff(original.Mem)
			res.Matches = len(res.MemDiff) == 0
			return res, nil
		}
		res.Divergence = &Divergence{Step: -1, Reason: "schedule completed without reproducing the fault"}
		return res, nil
	}
	res.Fault = *f
	if i != len(steps)-1 {
		// Early faults under CheckHeap are the point of checked replay:
		// report the fault, not a divergence.
		if cfg.CheckHeap && (f.Kind == coredump.FaultHeapOOB || f.Kind == coredump.FaultUseAfterFree) {
			return res, nil
		}
		res.Divergence = &Divergence{Step: i, Reason: fmt.Sprintf("premature fault %v", f)}
		return res, nil
	}
	res.MemDiff = v.Mem.Diff(original.Mem)
	res.Matches = len(res.MemDiff) == 0 && f.Same(original.Fault) && v.SameThreads(original)
	return res, nil
}
