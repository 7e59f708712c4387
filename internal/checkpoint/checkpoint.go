// Package checkpoint implements the checkpoint ring that bounds RES's
// backward search by time instead of execution length. A production run
// periodically captures its complete machine state (every K block-steps,
// stamped with the VM's step counter) into a bounded ring with
// exponential thinning, alongside a sliding window of the schedule and
// input log. On a failure the ring ships as a named attachment of the
// coredump container; the analyzer then replays forward from candidate
// checkpoints (FReD-style bisection) to find the latest one that still
// reproduces the failure and anchors the backward search at that
// checkpoint's state, so the synthesized suffix is bounded by the
// checkpoint interval regardless of how long the execution ran before
// failing — the paper's "arbitrarily long executions" made concrete.
package checkpoint

import (
	"fmt"
	"sort"

	"res/internal/coredump"
	"res/internal/mem"
	"res/internal/prog"
	"res/internal/trace"
	"res/internal/vm"
)

// Checkpoint is one captured machine state: the complete resumable state
// before the execution's Step-th block ran (Step blocks had executed).
type Checkpoint struct {
	// Step is the VM step counter at capture time: the number of basic
	// blocks executed before this state.
	Step uint64
	// Mem is the memory image as its nonzero words, the same form the
	// wire carries. State builds the paged image.
	Mem *mem.Sparse
	// Threads are the live threads, dense by ID in spawn order.
	Threads []vm.Thread
	// Locks maps held mutex addresses to owning thread IDs.
	Locks map[uint32]int
	// Heap is the allocator record list.
	Heap []coredump.HeapObject
	// HeapNext is the bump-allocator frontier.
	HeapNext uint32
}

// State lowers the checkpoint to the VM's resume form, with a fresh
// memory image the VM may own.
func (c *Checkpoint) State() vm.State {
	return vm.State{
		Mem:      c.Mem.Image(),
		Threads:  c.Threads,
		Locks:    c.Locks,
		Heap:     c.Heap,
		HeapNext: c.HeapNext,
	}
}

// InputRec is one consumed external input, stamped with the step index
// of the block that consumed it.
type InputRec struct {
	Step           uint64
	Channel, Value int64
}

// Ring is the recorded artifact: the surviving checkpoints plus the
// sliding schedule/input window that makes the recent ones concretely
// replayable. The window always covers at least the span from the newest
// checkpoint to the end of execution (the recorder trims it only against
// LogWindow, which is sized above the thinned interval), so the latest
// checkpoint can be verified by forward replay; older checkpoints may
// fall outside the window and then anchor the backward search
// symbolically only.
type Ring struct {
	// Interval is the checkpoint spacing in block-steps (doubled by each
	// thinning pass).
	Interval uint64
	// Checkpoints are sorted by strictly increasing Step. The step-0
	// checkpoint (the initial state) is always retained.
	Checkpoints []*Checkpoint
	// LogBase is the step index of Sched[0].
	LogBase uint64
	// Sched is the schedule window: Sched[i] is the step LogBase+i.
	Sched []trace.Step
	// Inputs are the input records with Step >= LogBase, in consumption
	// order.
	Inputs []InputRec
}

// Empty reports whether the ring records nothing.
func (r *Ring) Empty() bool {
	return r == nil || (len(r.Checkpoints) == 0 && len(r.Sched) == 0 && len(r.Inputs) == 0)
}

// End is the step index just past the schedule window.
func (r *Ring) End() uint64 { return r.LogBase + uint64(len(r.Sched)) }

// Covered reports whether the window contains the full schedule from
// step (inclusive) to until (exclusive), i.e. whether a checkpoint at
// step can be concretely replayed up to until.
func (r *Ring) Covered(step, until uint64) bool {
	return step >= r.LogBase && until <= r.End() && step <= until
}

// Latest returns the newest checkpoint with Step <= step, or nil.
func (r *Ring) Latest(step uint64) *Checkpoint {
	i := sort.Search(len(r.Checkpoints), func(i int) bool {
		return r.Checkpoints[i].Step > step
	})
	if i == 0 {
		return nil
	}
	return r.Checkpoints[i-1]
}

// Candidates returns the checkpoints usable as backward-search anchors
// for a dump with the given step count: anchoring needs suffix depth
// >= 2 (depth 1 is pinned by the dump itself), so only checkpoints at
// least two steps before the failure qualify.
func (r *Ring) Candidates(dumpSteps uint64) []*Checkpoint {
	var out []*Checkpoint
	for _, c := range r.Checkpoints {
		if c.Step+2 <= dumpSteps {
			out = append(out, c)
		}
	}
	return out
}

// validate enforces the structural invariants shared by the recorder and
// the wire decoder.
func (r *Ring) validate(memSize uint32) error {
	var prev *Checkpoint
	for i, c := range r.Checkpoints {
		if prev != nil && c.Step <= prev.Step {
			return fmt.Errorf("checkpoint %d: steps not strictly increasing", i)
		}
		if c.Mem == nil || c.Mem.Size() != memSize {
			return fmt.Errorf("checkpoint %d: bad memory image", i)
		}
		if len(c.Threads) == 0 {
			return fmt.Errorf("checkpoint %d: no threads", i)
		}
		for id, t := range c.Threads {
			if t.ID != id {
				return fmt.Errorf("checkpoint %d: thread ids not dense", i)
			}
		}
		prev = c
	}
	for i, in := range r.Inputs {
		if in.Step < r.LogBase {
			return fmt.Errorf("input %d: step below log base", i)
		}
		if in.Step >= r.End() {
			return fmt.Errorf("input %d: step beyond schedule window", i)
		}
		if i > 0 && in.Step < r.Inputs[i-1].Step {
			return fmt.Errorf("input %d: steps not sorted", i)
		}
	}
	return nil
}

// Config tunes the recorder.
type Config struct {
	// Every is the checkpoint interval in block-steps. 0 = default (256).
	Every uint64
	// Cap bounds the number of retained checkpoints; exceeding it thins
	// the ring (drop every second, double the interval). 0 = default
	// (64). Minimum effective value is 4.
	Cap int
	// LogWindow bounds the schedule/input window length in steps. 0 =
	// default (32768). The window should comfortably exceed the thinned
	// interval or the newest checkpoints lose concrete replayability.
	LogWindow int
}

func (c Config) every() uint64 {
	if c.Every == 0 {
		return 256
	}
	return c.Every
}

func (c Config) cap() int {
	switch {
	case c.Cap == 0:
		return 64
	case c.Cap < 4:
		return 4
	}
	return c.Cap
}

func (c Config) logWindow() int {
	if c.LogWindow == 0 {
		return 32768
	}
	return c.LogWindow
}

// Recorder collects a checkpoint ring from a live VM run: install
// rec.Hooks() in the RunConfig, Bind the VM before running, then call
// Ring() after the run.
type Recorder struct {
	p   *prog.Program
	cfg Config
	v   *vm.VM

	interval uint64
	nextAt   uint64
	steps    uint64
	cks      []*Checkpoint

	logBase uint64
	sched   []trace.Step
	inputs  []InputRec
}

// NewRecorder creates a recorder for runs of p.
func NewRecorder(p *prog.Program, cfg Config) *Recorder {
	return &Recorder{p: p, cfg: cfg, interval: cfg.every()}
}

// Bind attaches the recorder to the VM whose run it observes. Without a
// bound VM the hooks still log the schedule and inputs but capture no
// state checkpoints.
func (r *Recorder) Bind(v *vm.VM) { r.v = v }

// Hooks returns the VM hooks that drive the recorder. Merge them with
// any other hook set via vm.MergeHooks.
func (r *Recorder) Hooks() vm.Hooks {
	return vm.Hooks{
		OnBlockStart: r.onBlockStart,
		OnInput:      r.onInput,
	}
}

func (r *Recorder) onBlockStart(tid, block int) {
	// OnBlockStart fires after the VM counted the step but before the
	// block's instructions ran, so the observable state is the machine
	// before step idx — exactly a resumable boundary.
	idx := r.steps
	r.steps++
	if r.v != nil && idx >= r.nextAt {
		st := r.v.CaptureState()
		r.cks = append(r.cks, &Checkpoint{
			Step:     idx,
			Mem:      mem.SparseOf(r.v.Mem),
			Threads:  st.Threads,
			Locks:    st.Locks,
			Heap:     st.Heap,
			HeapNext: st.HeapNext,
		})
		r.nextAt = idx + r.interval
		r.thin()
	}
	r.sched = append(r.sched, trace.Step{Tid: tid, Block: block})
	if w := r.cfg.logWindow(); len(r.sched) > w {
		drop := len(r.sched) - w
		r.sched = append(r.sched[:0:0], r.sched[drop:]...)
		r.logBase += uint64(drop)
		i := 0
		for i < len(r.inputs) && r.inputs[i].Step < r.logBase {
			i++
		}
		r.inputs = append(r.inputs[:0:0], r.inputs[i:]...)
	}
}

func (r *Recorder) onInput(_ int, channel, value int64) {
	// The consuming block is the one whose OnBlockStart just fired:
	// step index r.steps-1.
	r.inputs = append(r.inputs, InputRec{Step: r.steps - 1, Channel: channel, Value: value})
}

// thin halves the ring once it exceeds the cap: the step-0 checkpoint
// and the newest checkpoint always survive (the first is the fallback
// full-reconstruction anchor, the second is the one bisection wants);
// every second checkpoint between them is dropped and the interval
// doubles, so retained state stays O(cap) while coverage stays
// logarithmically spaced over the whole execution.
func (r *Recorder) thin() {
	if len(r.cks) <= r.cfg.cap() {
		return
	}
	kept := r.cks[:1:1]
	for i := 2; i < len(r.cks)-1; i += 2 {
		kept = append(kept, r.cks[i])
	}
	kept = append(kept, r.cks[len(r.cks)-1])
	r.cks = kept
	r.interval *= 2
	r.nextAt = r.cks[len(r.cks)-1].Step + r.interval
}

// Ring snapshots the recorded artifact. The returned ring shares the
// checkpoints' backing state with the recorder; record one run per
// recorder.
func (r *Recorder) Ring() *Ring {
	return &Ring{
		Interval:    r.interval,
		Checkpoints: r.cks,
		LogBase:     r.logBase,
		Sched:       append([]trace.Step(nil), r.sched...),
		Inputs:      append([]InputRec(nil), r.inputs...),
	}
}
