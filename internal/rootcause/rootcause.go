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
	"sort"
	"strings"

	"res/internal/core"
	"res/internal/coredump"
	"res/internal/prog"
	"res/internal/replay"
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
	seq   int
	tid   int
	pc    int
	addr  uint32
	write bool
	locks map[uint32]bool // locks held by tid at access time
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
	var recs []accessRec
	held := make(map[int]map[uint32]bool)
	lockset := func(tid int) map[uint32]bool {
		ls := make(map[uint32]bool, len(held[tid]))
		for a := range held[tid] {
			ls[a] = true
		}
		return ls
	}
	seq := 0
	hooks := vm.Hooks{
		OnAccess: func(tid, pc int, addr uint32, write bool) {
			recs = append(recs, accessRec{seq: seq, tid: tid, pc: pc, addr: addr, write: write, locks: lockset(tid)})
			seq++
		},
		OnLock: func(tid, pc int, addr uint32, acquire bool) {
			if held[tid] == nil {
				held[tid] = make(map[uint32]bool)
			}
			if acquire {
				held[tid][addr] = true
			} else {
				delete(held[tid], addr)
			}
			seq++
		},
	}
	// Seed locksets with the locks already held at the suffix start.
	for a, owner := range syn.PreLocks {
		if held[owner] == nil {
			held[owner] = make(map[uint32]bool)
		}
		held[owner][a] = true
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
	if c := findAtomicityViolation(recs); c != nil {
		an.Races = append(an.Races, c)
	}
	if cs := findRaces(recs); len(cs) > 0 {
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

// findRaces runs the lockset discipline over the recording: two accesses
// to the same address from different threads, at least one a write, with
// no common lock protecting both.
func findRaces(recs []accessRec) []*Cause {
	byAddr := make(map[uint32][]accessRec)
	for _, r := range recs {
		byAddr[r.addr] = append(byAddr[r.addr], r)
	}
	addrs := make([]uint32, 0, len(byAddr))
	for a := range byAddr {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	var out []*Cause
	seen := make(map[string]bool)
	for _, a := range addrs {
		rs := byAddr[a]
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				x, y := rs[i], rs[j]
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
// the t accesses unprotected by a common lock spanning both.
func findAtomicityViolation(recs []accessRec) *Cause {
	for i := 0; i < len(recs); i++ {
		first := recs[i]
		for j := i + 1; j < len(recs); j++ {
			mid := recs[j]
			if mid.tid == first.tid || mid.addr != first.addr || !mid.write {
				continue
			}
			for k := j + 1; k < len(recs); k++ {
				last := recs[k]
				if last.tid != first.tid || last.addr != first.addr {
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
