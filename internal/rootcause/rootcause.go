// Package rootcause identifies the likely root cause of a failure from a
// synthesized execution suffix (§3.1 of the paper: triage by root cause
// rather than by failure point). It replays the suffix deterministically
// with full instrumentation — allocator checking on, every memory access
// and lock transition observed — and runs dynamic detectors over the
// recording:
//
//   - checked-heap faults (buffer overflow, use-after-free) that were
//     silent in production surface at the corrupting access;
//   - a block-granularity lockset race detector finds unsynchronized
//     conflicting accesses;
//   - an access-pattern detector finds atomicity violations (a thread's
//     read–use pair split by a conflicting write from another thread);
//   - otherwise the fault itself (assert, division, null pointer,
//     deadlock) is the cause, located at its pc.
package rootcause

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"res/internal/core"
	"res/internal/coredump"
	"res/internal/prog"
	"res/internal/replay"
	"res/internal/trace"
	"res/internal/vm"
)

// Kind classifies root causes.
type Kind uint8

const (
	Unknown Kind = iota
	DataRace
	AtomicityViolation
	BufferOverflow
	UseAfterFree
	DoubleFree
	NullDeref
	DivByZero
	AssertionFailure
	Deadlock
	StackOverflow
	OutOfBounds
)

var kindNames = map[Kind]string{
	Unknown: "unknown", DataRace: "data-race",
	AtomicityViolation: "atomicity-violation", BufferOverflow: "buffer-overflow",
	UseAfterFree: "use-after-free", DoubleFree: "double-free",
	NullDeref: "null-deref", DivByZero: "div-by-zero",
	AssertionFailure: "assertion-failure", Deadlock: "deadlock",
	StackOverflow: "stack-overflow", OutOfBounds: "out-of-bounds",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Cause is an identified root cause. PCs are the program locations
// involved (for a race: both access sites), which makes Key stable across
// different failure manifestations of the same bug — the property WER's
// stack bucketing lacks.
type Cause struct {
	Kind   Kind
	PCs    []int
	Addr   uint32
	Detail string
}

// Key renders a bucketing key: same root cause, same key. For race-family
// causes the stable identity is the contended location — the access sites
// vary with the interleaving and the crash site (that variance is exactly
// why stack bucketing over-splits), so the key uses the kind plus the racy
// address. For other causes the defect site (pc list) is stable and
// discriminating.
func (c *Cause) Key() string {
	switch c.Kind {
	case DataRace, AtomicityViolation:
		return fmt.Sprintf("%v@addr%d", c.Kind, c.Addr)
	}
	pcs := make([]string, len(c.PCs))
	for i, pc := range c.PCs {
		pcs[i] = fmt.Sprintf("%d", pc)
	}
	return c.Kind.String() + "@" + strings.Join(pcs, ",")
}

func (c *Cause) String() string {
	s := fmt.Sprintf("%v at pcs %v", c.Kind, c.PCs)
	if c.Addr != 0 {
		s += fmt.Sprintf(" on addr %d", c.Addr)
	}
	if c.Detail != "" {
		s += " (" + c.Detail + ")"
	}
	return s
}

// accessRec is one observed access during instrumented replay.
type accessRec struct {
	tid   int
	pc    int
	addr  uint32
	write bool
	// locks is the set of locks tid held at access time: nil when none,
	// and never written once recorded (see withLock).
	locks map[uint32]bool
}

// Analysis is the full result: the cause plus whether the replay
// faithfully reproduced the original failure (a cause from an unfaithful
// replay is reported but flagged).
type Analysis struct {
	Cause    *Cause
	Faithful bool
	Races    []*Cause // all conflicts found, primary first
	// Replay is the instrumented replay the cause was read from: heap
	// checking on, access and lock hooks attached. Without a heap fault
	// it ran the same blocks a plain replay would.
	Replay *replay.Result
}

// Analyze replays the synthesized suffix with instrumentation and returns
// the most specific root cause it can justify.
func Analyze(p *prog.Program, syn *core.Synthesized, original *coredump.Dump) (*Analysis, error) {
	// The detectors read only addresses two threads touched, so a
	// schedule that runs one thread needs no access log.
	var recs []accessRec
	var hooks vm.Hooks
	if !oneThread(syn.Suffix.Steps) {
		held := make(map[int]map[uint32]bool) // each thread's current lockset
		hooks = vm.Hooks{
			OnAccess: func(tid, pc int, addr uint32, write bool) {
				recs = append(recs, accessRec{tid: tid, pc: pc, addr: addr, write: write, locks: held[tid]})
			},
			OnLock: func(tid, pc int, addr uint32, acquire bool) {
				held[tid] = withLock(held[tid], addr, acquire)
			},
		}
		// Seed locksets with the locks already held at the suffix start.
		for a, owner := range syn.PreLocks {
			held[owner] = withLock(held[owner], a, true)
		}
	}

	rr, err := replay.Run(p, syn, original, replay.Config{CheckHeap: true, Hooks: hooks})
	if err != nil {
		return nil, err
	}

	an := &Analysis{Faithful: rr.Matches, Replay: rr}

	// Checked replay surfaced heap corruption that production missed: the
	// corrupting access is the root cause.
	if rr.Fault.Kind == coredump.FaultHeapOOB {
		an.Cause = &Cause{Kind: BufferOverflow, PCs: []int{rr.Fault.PC}, Addr: rr.Fault.Addr}
		an.Faithful = true // the earlier fault is expected under checking
		return an, nil
	}
	if rr.Fault.Kind == coredump.FaultUseAfterFree {
		an.Cause = &Cause{Kind: UseAfterFree, PCs: []int{rr.Fault.PC}, Addr: rr.Fault.Addr, Detail: rr.Fault.Detail}
		an.Faithful = true
		return an, nil
	}

	// Concurrency analysis over the access recording.
	shared := sharedAccesses(recs)
	if c := findAtomicityViolation(recs, shared); c != nil {
		an.Races = append(an.Races, c)
	}
	if cs := findRaces(recs, shared); len(cs) > 0 {
		an.Races = append(an.Races, cs...)
	}
	if len(an.Races) > 0 {
		an.Cause = an.Races[0]
		return an, nil
	}

	// Fall back to the failure itself.
	f := rr.Fault
	if rr.Divergence != nil {
		f = original.Fault
		an.Faithful = false
	}
	an.Cause = faultCause(f)
	return an, nil
}

// oneThread reports whether every step of a schedule runs the same thread.
func oneThread(steps []trace.Step) bool {
	for _, s := range steps {
		if s.Tid != steps[0].Tid {
			return false
		}
	}
	return true
}

// faultCause maps a fault descriptor to a cause.
func faultCause(f coredump.Fault) *Cause {
	c := &Cause{PCs: []int{f.PC}, Addr: f.Addr, Detail: f.Detail}
	switch f.Kind {
	case coredump.FaultNullDeref:
		c.Kind = NullDeref
	case coredump.FaultOOB, coredump.FaultHeapOOB:
		c.Kind = OutOfBounds
	case coredump.FaultUseAfterFree:
		c.Kind = UseAfterFree
	case coredump.FaultDoubleFree:
		c.Kind = DoubleFree
	case coredump.FaultDivByZero:
		c.Kind = DivByZero
	case coredump.FaultAssert:
		c.Kind = AssertionFailure
	case coredump.FaultDeadlock:
		c.Kind = Deadlock
	case coredump.FaultStackOverflow:
		c.Kind = StackOverflow
	default:
		c.Kind = Unknown
	}
	return c
}

// withLock returns the lockset ls with lock a acquired or released, nil
// when no lock is left. It builds a new set and leaves ls as it was, so
// the accesses that recorded ls keep the set they saw.
func withLock(ls map[uint32]bool, a uint32, acquire bool) map[uint32]bool {
	out := make(map[uint32]bool, len(ls)+1)
	for l := range ls {
		out[l] = true
	}
	if acquire {
		out[a] = true
	} else {
		delete(out, a)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// sharedAccesses indexes the recording by address, in recording order,
// keeping only the addresses that at least two threads touched and at
// least one access wrote: every race and atomicity violation the
// detectors report lies within one such address.
func sharedAccesses(recs []accessRec) map[uint32][]int {
	type use struct {
		tid            int
		multi, written bool
	}
	uses := make(map[uint32]use)
	for i := range recs {
		r := &recs[i]
		u, ok := uses[r.addr]
		if !ok {
			u.tid = r.tid
		} else if u.tid != r.tid {
			u.multi = true
		}
		u.written = u.written || r.write
		uses[r.addr] = u
	}
	var out map[uint32][]int
	for i := range recs {
		a := recs[i].addr
		if u := uses[a]; u.multi && u.written {
			if out == nil {
				out = make(map[uint32][]int)
			}
			out[a] = append(out[a], i)
		}
	}
	return out
}

// findRaces runs the lockset discipline over the recording: two accesses
// to the same address from different threads, at least one a write, with
// no common lock protecting both. shared is sharedAccesses(recs).
func findRaces(recs []accessRec, shared map[uint32][]int) []*Cause {
	addrs := make([]uint32, 0, len(shared))
	for a := range shared {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)

	var out []*Cause
	seen := make(map[string]bool)
	for _, a := range addrs {
		rs := shared[a]
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				x, y := &recs[rs[i]], &recs[rs[j]]
				if x.tid == y.tid || (!x.write && !y.write) {
					continue
				}
				if commonLock(x.locks, y.locks) {
					continue
				}
				pcs := []int{x.pc, y.pc}
				sort.Ints(pcs)
				c := &Cause{Kind: DataRace, PCs: pcs, Addr: a,
					Detail: fmt.Sprintf("t%d and t%d access word %d unsynchronized", x.tid, y.tid, a)}
				if !seen[c.Key()] {
					seen[c.Key()] = true
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// findAtomicityViolation looks for the classic single-variable pattern:
// thread t accesses a, thread u writes a, thread t accesses a again, with
// the t accesses unprotected by a common lock spanning both. It reports
// the first such triple in recording order. shared is
// sharedAccesses(recs).
func findAtomicityViolation(recs []accessRec, shared map[uint32][]int) *Cause {
	next := make(map[uint32]int, len(shared)) // position of the next first in shared[addr]
	for i := range recs {
		first := &recs[i]
		rs, ok := shared[first.addr]
		if !ok {
			continue
		}
		p := next[first.addr]
		next[first.addr] = p + 1
		for j := p + 1; j < len(rs); j++ {
			mid := &recs[rs[j]]
			if mid.tid == first.tid || !mid.write {
				continue
			}
			for k := j + 1; k < len(rs); k++ {
				last := &recs[rs[k]]
				if last.tid != first.tid {
					continue
				}
				// The pair (first, last) should have been atomic. If a lock
				// protects both endpoints AND the intruder held it too, the
				// schedule could not interleave — not a violation.
				if commonLock(first.locks, mid.locks) && commonLock(last.locks, mid.locks) {
					continue
				}
				pcs := []int{first.pc, mid.pc, last.pc}
				sort.Ints(pcs)
				return &Cause{Kind: AtomicityViolation, PCs: pcs, Addr: first.addr,
					Detail: fmt.Sprintf("t%d's accesses at pc %d and %d split by t%d's write at pc %d",
						first.tid, first.pc, last.pc, mid.tid, mid.pc)}
			}
		}
	}
	return nil
}

func commonLock(a, b map[uint32]bool) bool {
	for l := range a {
		if b[l] {
			return true
		}
	}
	return false
}
