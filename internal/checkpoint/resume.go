package checkpoint

import (
	"fmt"
	"time"

	"res/internal/coredump"
	"res/internal/prog"
	"res/internal/vm"
)

// Resume rebuilds the machine at the checkpoint and deterministically
// replays the recorded schedule forward up to (but not including) step
// index until. It returns the VM (positioned at absolute step until, or
// at the faulting step) and the fault that stopped the replay, if any.
// Resume fails when the schedule window does not cover [ck.Step, until)
// or when the replay diverges from the recorded schedule — either means
// the ring does not describe this execution.
func (r *Ring) Resume(p *prog.Program, ck *Checkpoint, until uint64) (*vm.VM, *coredump.Fault, error) {
	if ck == nil {
		return nil, nil, fmt.Errorf("checkpoint: nil checkpoint")
	}
	if until < ck.Step {
		return nil, nil, fmt.Errorf("checkpoint: resume target %d before checkpoint step %d", until, ck.Step)
	}
	if !r.Covered(ck.Step, until) {
		return nil, nil, fmt.Errorf("checkpoint: schedule window [%d,%d) does not cover [%d,%d)", r.LogBase, r.End(), ck.Step, until)
	}
	// The ring's image size is whatever its sender claimed; check it
	// before State builds an image that large.
	if ck.Mem.Size() != p.Layout.MemSize {
		return nil, nil, fmt.Errorf("checkpoint: memory size %d does not match layout %d", ck.Mem.Size(), p.Layout.MemSize)
	}
	// Feed the post-checkpoint inputs in consumption order per channel.
	inputs := make(map[int64][]int64)
	for _, in := range r.Inputs {
		if in.Step >= ck.Step {
			inputs[in.Channel] = append(inputs[in.Channel], in.Value)
		}
	}
	v, err := vm.NewFromState(p, vm.Config{Inputs: inputs}, ck.State())
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: rebuilding state: %w", err)
	}
	steps := r.Sched[ck.Step-r.LogBase : until-r.LogBase]
	i, f, err := v.Follow(steps)
	if err != nil {
		return v, nil, fmt.Errorf("checkpoint: replay diverged at step %d: %w", ck.Step+uint64(i), err)
	}
	if f != nil && i != len(steps)-1 {
		return v, f, fmt.Errorf("checkpoint: replay diverged at step %d: premature fault %v", ck.Step+uint64(i), f)
	}
	return v, f, nil
}

// Verify replays forward from the checkpoint through the end of the
// recorded schedule and reports whether the execution runs into exactly
// the dump's failure: same fault descriptor, same memory, same thread
// registers and program counters. Deterministic replay means every
// genuine checkpoint of the dumped execution verifies; a false return
// therefore flags either a schedule window too short to reach the
// failure or a ring that does not belong to this dump.
func (r *Ring) Verify(p *prog.Program, ck *Checkpoint, d *coredump.Dump) bool {
	if ck.Step > d.Steps || r.End() != d.Steps {
		return false
	}
	v, f, err := r.Resume(p, ck, d.Steps)
	if err != nil {
		return false
	}
	// A global fault (deadlock, budget) has no faulting instruction to
	// compare; the end state carries the verdict.
	if d.Fault.Thread >= 0 && (f == nil || !f.Same(d.Fault)) {
		return false
	}
	return len(v.Mem.Diff(d.Mem)) == 0 && v.SameThreads(d)
}

// BisectObserved finds the latest checkpoint from which the failure
// still reproduces — the FReD move: binary-search the process lifetime
// over checkpoints to localize the failure region before any symbolic
// work. Checkpoints outside the schedule window cannot be concretely
// replayed and count as non-reproducing, so the search lands on the
// newest verifiable checkpoint. When nothing verifies (window too short,
// or a foreign ring) it falls back to the newest anchor-eligible
// checkpoint, unverified: the backward search still discharges the
// anchor state through the solver, so a bogus anchor costs completeness,
// never soundness. The boolean reports whether the returned checkpoint
// was verified; nil means the ring offers no usable anchor at all.
//
// onVerify, when non-nil, is invoked after every forward-replay
// verification probe with the probed checkpoint, the replay's wall time,
// and its outcome. The analyzer wires it to per-probe trace spans, and
// the service's bisect-replay histogram is fed from those.
func (r *Ring) BisectObserved(p *prog.Program, d *coredump.Dump, onVerify func(ck *Checkpoint, dur time.Duration, ok bool)) (*Checkpoint, bool) {
	cands := r.Candidates(d.Steps)
	if len(cands) == 0 {
		return nil, false
	}
	lo, hi, best := 0, len(cands)-1, -1
	for lo <= hi {
		mid := (lo + hi) / 2
		var t0 time.Time
		if onVerify != nil {
			t0 = time.Now()
		}
		ok := r.Verify(p, cands[mid], d)
		if onVerify != nil {
			onVerify(cands[mid], time.Since(t0), ok)
		}
		if ok {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if best < 0 {
		return cands[len(cands)-1], false
	}
	return cands[best], true
}

// EarlierThan returns the newest anchor-eligible checkpoint strictly
// older than step, or nil — the analyzer's escalation path when an
// anchored search needs a wider window.
func (r *Ring) EarlierThan(step, dumpSteps uint64) *Checkpoint {
	cands := r.Candidates(dumpSteps)
	for i := len(cands) - 1; i >= 0; i-- {
		if cands[i].Step < step {
			return cands[i]
		}
	}
	return nil
}
