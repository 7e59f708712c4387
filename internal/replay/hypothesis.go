package replay

import (
	"res/internal/core"
	"res/internal/prog"
	"res/internal/vm"
)

// This file implements §3.3's "automate the testing of various hypotheses
// formulated during debugging": structured queries evaluated by replaying
// the synthesized suffix with instrumentation, such as
//
//   - "was a thread T preempted before updating shared memory location
//     M?"                  -> PreemptedBeforeWrite
//   - "which thread last wrote M, and when?" -> LastWriter
//
// Because the suffix replays deterministically, every query has a single
// well-defined answer for this reconstruction. A suffix whose schedule
// cannot be followed has no such answer: the queries then return its
// *Divergence as the error.

// follow replays the suffix through its forced schedule and reports
// every memory access to onAccess, with the index of the schedule step
// that made it.
func follow(p *prog.Program, syn *core.Synthesized, onAccess func(step, tid, pc int, addr uint32, write bool)) error {
	step := -1
	hooks := vm.Hooks{
		OnBlockStart: func(int, int) { step++ },
		OnAccess:     func(tid, pc int, addr uint32, write bool) { onAccess(step, tid, pc, addr, write) },
	}
	v, err := New(p, syn, Config{Hooks: hooks})
	if err != nil {
		return err
	}
	if i, _, err := v.Follow(syn.Suffix.Steps); err != nil {
		return &Divergence{Step: i, Reason: err.Error()}
	}
	return nil
}

// WriteEvent is one observed write to a watched address.
type WriteEvent struct {
	Step int
	Tid  int
	PC   int
}

// LastWriter replays the suffix and reports every write to addr in order;
// the last entry answers "who last wrote M before the failure".
func LastWriter(p *prog.Program, syn *core.Synthesized, addr uint32) ([]WriteEvent, error) {
	var events []WriteEvent
	err := follow(p, syn, func(step, tid, pc int, a uint32, write bool) {
		if write && a == addr {
			events = append(events, WriteEvent{Step: step, Tid: tid, PC: pc})
		}
	})
	if err != nil {
		return nil, err
	}
	return events, nil
}

// PreemptedBeforeWrite answers §3.3's example hypothesis: was thread tid
// preempted (another thread scheduled) between its last read of addr and
// its next write to addr? True indicates the classic lost-update window
// actually occurred in this reconstruction.
func PreemptedBeforeWrite(p *prog.Program, syn *core.Synthesized, tid int, addr uint32) (bool, error) {
	type access struct {
		step  int
		tid   int
		write bool
	}
	var accesses []access
	err := follow(p, syn, func(step, t, _ int, a uint32, write bool) {
		if a == addr {
			accesses = append(accesses, access{step: step, tid: t, write: write})
		}
	})
	if err != nil {
		return false, err
	}
	schedule := syn.Suffix.Steps
	// Find a read(tid) ... write(tid) pair on addr with an intervening
	// step by another thread.
	for i, a := range accesses {
		if a.tid != tid || a.write {
			continue
		}
		for j := i + 1; j < len(accesses); j++ {
			b := accesses[j]
			if b.tid != tid || !b.write {
				continue
			}
			// Any schedule step between a.step and b.step by another
			// thread is a preemption of the read-modify-write window.
			for s := a.step + 1; s < b.step && s < len(schedule); s++ {
				if schedule[s].Tid != tid {
					return true, nil
				}
			}
			break // only the first write after the read closes the window
		}
	}
	return false, nil
}
