package replay

import (
	"fmt"

	"res/internal/core"
	"res/internal/coredump"
	"res/internal/isa"
	"res/internal/prog"
	"res/internal/vm"
)

// StopReason says why the debugger paused.
type StopReason uint8

const (
	StopNone StopReason = iota
	StopStep
	StopBreakpoint
	StopWatchpoint
	StopFault
	StopEnd // schedule exhausted without a fault (divergent suffix)
)

func (s StopReason) String() string {
	switch s {
	case StopStep:
		return "step"
	case StopBreakpoint:
		return "breakpoint"
	case StopWatchpoint:
		return "watchpoint"
	case StopFault:
		return "fault"
	case StopEnd:
		return "end"
	}
	return "none"
}

// Stop describes a pause.
type Stop struct {
	Reason StopReason
	Tid    int
	PC     int
	// Watch details, when Reason == StopWatchpoint.
	WatchAddr  uint32
	WatchWrite bool
	// Fault details, when Reason == StopFault.
	Fault coredump.Fault
}

func (s Stop) String() string {
	switch s.Reason {
	case StopWatchpoint:
		op := "read"
		if s.WatchWrite {
			op = "write"
		}
		return fmt.Sprintf("watchpoint: %s of mem[%d] at pc %d (t%d)", op, s.WatchAddr, s.PC, s.Tid)
	case StopFault:
		return "fault: " + s.Fault.String()
	default:
		return fmt.Sprintf("%v at pc %d (t%d)", s.Reason, s.PC, s.Tid)
	}
}

// Debugger drives a synthesized suffix like gdb drives a live process —
// except the "process" is RES's reconstruction, so it can also step
// backward: deterministic replay makes reverse execution a restart plus a
// shorter forward run, with no recording of the original execution
// (§3.3).
type Debugger struct {
	p        *prog.Program
	syn      *core.Synthesized
	original *coredump.Dump

	vm  *vm.VM
	pos int // scheduled blocks executed

	breakpoints map[int]bool
	watchpoints map[uint32]bool

	pendingWatch *Stop
	fault        *coredump.Fault
}

// NewDebugger prepares a debugger over the suffix; the machine sits at the
// suffix start (the inferred pre-image Mi).
func NewDebugger(p *prog.Program, syn *core.Synthesized, original *coredump.Dump) (*Debugger, error) {
	d := &Debugger{
		p:           p,
		syn:         syn,
		original:    original,
		breakpoints: make(map[int]bool),
		watchpoints: make(map[uint32]bool),
	}
	if err := d.Restart(); err != nil {
		return nil, err
	}
	return d, nil
}

// Restart rewinds to the suffix start.
func (d *Debugger) Restart() error {
	v, err := New(d.p, d.syn, Config{Hooks: vm.Hooks{OnAccess: d.onAccess}})
	if err != nil {
		return err
	}
	d.vm = v
	d.pos = 0
	d.pendingWatch = nil
	d.fault = nil
	return nil
}

func (d *Debugger) onAccess(tid, pc int, addr uint32, write bool) {
	if d.pendingWatch == nil && d.watchpoints[addr] {
		d.pendingWatch = &Stop{Reason: StopWatchpoint, Tid: tid, PC: pc, WatchAddr: addr, WatchWrite: write}
	}
}

// Break sets a breakpoint at an instruction index.
func (d *Debugger) Break(pc int) { d.breakpoints[pc] = true }

// Watch sets a watchpoint on a memory word.
func (d *Debugger) Watch(addr uint32) { d.watchpoints[addr] = true }

// Pos returns how many scheduled blocks have executed.
func (d *Debugger) Pos() int { return d.pos }

// Len returns the schedule length.
func (d *Debugger) Len() int { return len(d.syn.Suffix.Steps) }

// Done reports whether the suffix is fully replayed.
func (d *Debugger) Done() bool { return d.pos >= len(d.syn.Suffix.Steps) || d.fault != nil }

// Where reports the next scheduled thread and its pc.
func (d *Debugger) Where() (tid, pc int, fn string) {
	if d.pos >= len(d.syn.Suffix.Steps) {
		return -1, -1, ""
	}
	step := d.syn.Suffix.Steps[d.pos]
	t := d.vm.Thread(step.Tid)
	if t == nil {
		return step.Tid, -1, ""
	}
	if f, err := d.p.FuncAt(t.PC); err == nil {
		fn = f.Name
	}
	return step.Tid, t.PC, fn
}

// Regs returns a thread's register file.
func (d *Debugger) Regs(tid int) ([isa.NumRegs]int64, error) {
	t := d.vm.Thread(tid)
	if t == nil {
		return [isa.NumRegs]int64{}, fmt.Errorf("debugger: no thread %d", tid)
	}
	return t.Regs, nil
}

// ReadMem reads a memory word of the replayed machine.
func (d *Debugger) ReadMem(addr uint32) (int64, error) {
	if !d.vm.Mem.InRange(addr) {
		return 0, fmt.Errorf("debugger: address %d out of range", addr)
	}
	return d.vm.Mem.Load(addr), nil
}

// Step executes the next scheduled block and reports why it stopped.
func (d *Debugger) Step() Stop {
	if d.fault != nil {
		return Stop{Reason: StopFault, Fault: *d.fault}
	}
	if d.pos >= len(d.syn.Suffix.Steps) {
		return Stop{Reason: StopEnd}
	}
	step := d.syn.Suffix.Steps[d.pos]
	d.pendingWatch = nil
	f := d.vm.ExecBlock(step.Tid)
	d.pos++
	if f != nil && f.Kind != coredump.FaultNone {
		d.fault = f
		return Stop{Reason: StopFault, Tid: f.Thread, PC: f.PC, Fault: *f}
	}
	if d.pendingWatch != nil {
		s := *d.pendingWatch
		return s
	}
	t := d.vm.Thread(step.Tid)
	pc := -1
	if t != nil {
		pc = t.PC
	}
	return Stop{Reason: StopStep, Tid: step.Tid, PC: pc}
}

// Continue runs until a breakpoint block, watchpoint hit, fault, or the
// end of the suffix.
func (d *Debugger) Continue() Stop {
	for !d.Done() {
		// Breakpoint check: does the next scheduled block contain one?
		step := d.syn.Suffix.Steps[d.pos]
		if bp, at := d.blockHasBreakpoint(step.Block); bp {
			return Stop{Reason: StopBreakpoint, Tid: step.Tid, PC: at}
		}
		s := d.Step()
		if s.Reason == StopWatchpoint || s.Reason == StopFault {
			return s
		}
	}
	if d.fault != nil {
		return Stop{Reason: StopFault, Fault: *d.fault}
	}
	return Stop{Reason: StopEnd}
}

func (d *Debugger) blockHasBreakpoint(blockID int) (bool, int) {
	b := d.p.Block(blockID)
	for pc := b.Start; pc < b.End; pc++ {
		if d.breakpoints[pc] {
			return true, pc
		}
	}
	return false, -1
}

// StepOver is Continue past the pending breakpoint block (gdb's behaviour
// when continuing from a breakpoint).
func (d *Debugger) StepOver() Stop {
	if d.Done() {
		return d.Continue()
	}
	if s := d.Step(); s.Reason != StopStep {
		return s
	}
	return d.Continue()
}

// ReverseStep steps one scheduled block backward: deterministic replay
// makes this a restart plus pos-1 forward steps.
func (d *Debugger) ReverseStep() (Stop, error) {
	target := d.pos - 1
	if target < 0 {
		target = 0
	}
	if err := d.Restart(); err != nil {
		return Stop{}, err
	}
	return d.runTo(target)
}

func (d *Debugger) runTo(target int) (Stop, error) {
	last := Stop{Reason: StopStep}
	for d.pos < target && !d.Done() {
		last = d.Step()
		if last.Reason == StopFault {
			return last, nil
		}
	}
	if d.pos >= len(d.syn.Suffix.Steps) {
		last = Stop{Reason: StopEnd}
	}
	return last, nil
}

// RunToFault replays the remaining schedule and returns the fault stop —
// "to the developer it looks as if the program deterministically runs into
// the same failure".
func (d *Debugger) RunToFault() Stop {
	for !d.Done() {
		if s := d.Step(); s.Reason == StopFault {
			return s
		}
	}
	if d.fault != nil {
		return Stop{Reason: StopFault, Fault: *d.fault}
	}
	return Stop{Reason: StopEnd}
}
