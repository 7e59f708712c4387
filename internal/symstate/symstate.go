// Package symstate implements the paper's symbolic snapshots (§2.3): an
// image of the program's state in which some locations hold concrete
// values (ultimately rooted in the coredump) and others hold symbolic
// expressions subject to constraints. RES manufactures one snapshot per
// backward step hypothesis; the snapshot for step k over-approximates
// every program state that could have existed k blocks before the failure.
//
// Snapshots are copy-on-write: Clone is O(1) and returns a child layered
// on its parent, holding only the deltas (memory overlay writes, thread
// mutations, lock-table changes) the child itself makes. Reads walk the
// layer chain, whose length is the search depth — so a depth-d node costs
// O(its own step) to create, not O(accumulated state). The live thread ids
// are the exception: each layer holds them, sharing its parent's list
// until it deletes a thread, because the search reads them several times
// per step.
//
// Every snapshot carries a solver.Session, the propagated solver state
// over the constraints it held at its last Check, plus the constraints
// added since. Check propagates only those on top of the session, so a
// per-step satisfiability check costs the step, not the depth; a child
// inherits both its parent's session and its unchecked constraints.
//
// Each snapshot also maintains an incremental structural fingerprint
// (built on symx's cached expression hashes) identifying its
// (threads, overlay, constraints, locks, heap) content, which the search
// uses to deduplicate equivalent frontier nodes.
package symstate

import (
	"fmt"
	"slices"
	"sort"

	"res/internal/coredump"
	"res/internal/isa"
	"res/internal/mem"
	"res/internal/solver"
	"res/internal/symx"
)

// ThreadState is the symbolic register file and scheduling state of one
// thread within a snapshot.
type ThreadState struct {
	Regs     [isa.NumRegs]*symx.Expr
	PC       int
	State    coredump.ThreadState
	WaitAddr uint32
}

// Clone returns a deep-enough copy (expressions are immutable and shared).
func (t *ThreadState) Clone() *ThreadState {
	nt := *t
	return &nt
}

// hash mixes the thread's full state into a structural hash.
func (t *ThreadState) hash(tid int) uint64 {
	h := mix(0x6a09e667f3bcc908, uint64(tid))
	h = mix(h, uint64(t.PC))
	h = mix(h, uint64(t.State))
	h = mix(h, uint64(t.WaitAddr))
	for r := 0; r < isa.NumRegs; r++ {
		h = mix(h, t.Regs[r].Hash())
	}
	return h
}

// mix is symx's hash mixer, so snapshot fingerprints compose from the
// same primitive as the expression hashes they build on.
func mix(h, v uint64) uint64 { return symx.MixHash(h, v) }

// Snapshot is one symbolic snapshot. The memory is represented as the
// coredump image plus an overlay of symbolic expressions for the locations
// whose pre-failure contents are not (yet) known concretely. A cloned
// snapshot shares its parent's layers and records only its own deltas;
// mutate threads only through MutableThread so the copy-on-write
// discipline holds.
type Snapshot struct {
	Pool *symx.Pool // shared fresh-variable allocator

	Base *mem.Image // the coredump memory (shared, never mutated)

	// parent is the layer this snapshot copies on write; nil at the root.
	parent *Snapshot

	// Per-layer deltas. At the root these hold the full state.
	mem     map[uint32]*symx.Expr // overlay writes made by this layer
	threads map[int]*ThreadState  // thread mutations; nil entry = deleted
	locks   map[uint32]int        // lock-table writes made by this layer
	lockDel map[uint32]bool       // lock-table deletions made by this layer
	// lockUp is the nearest ancestor layer that held a lock-table write
	// or deletion when this layer forked from its parent; lock reads skip
	// the layers between, which hold none.
	lockUp *Snapshot

	// tids holds the live thread ids in ascending order: the parent's
	// slice, until this layer deletes a thread. Nothing writes a slice in
	// place once a layer holds it.
	tids []int

	// sess is the propagated solver state over every constraint the
	// snapshot held at its last Check; pending lists the constraints added
	// since, oldest first. A clone's pending is capped at its length, so
	// an append on either side of the fork copies instead of reaching the
	// other.
	sess    *solver.Session
	pending []solver.Constraint

	Heap     []coredump.HeapObject // allocator records at this point (replaced wholesale, never mutated in place)
	HeapNext uint32                // bump pointer at this point

	Depth int // backward steps taken from the dump

	// Incrementally maintained fingerprint components.
	memHash  uint64 // XOR over (addr, expr-hash) of the effective overlay
	consHash uint64 // order-sensitive hash of the constraint chain
	lockHash uint64 // XOR over (addr, owner) of the held locks
}

// FromDump builds the base-case snapshot: everything concrete, straight
// from the coredump (the paper's "Spost is initialized with a copy of C").
// heapBase is the layout's first heap address, used to reconstruct the
// bump-allocator pointer from the dump's allocation records.
func FromDump(d *coredump.Dump, heapBase uint32, pool *symx.Pool) *Snapshot {
	s := &Snapshot{
		Pool:    pool,
		Base:    d.Mem,
		mem:     make(map[uint32]*symx.Expr),
		threads: make(map[int]*ThreadState),
		locks:   make(map[uint32]int, len(d.Locks)),
		sess:    solver.NewSession(),
		Heap:    append([]coredump.HeapObject(nil), d.Heap...),
	}
	for _, t := range d.Threads {
		ts := &ThreadState{PC: t.PC, State: t.State, WaitAddr: t.WaitAddr}
		for r := 0; r < isa.NumRegs; r++ {
			ts.Regs[r] = symx.Const(t.Regs[r])
		}
		s.threads[t.ID] = ts
	}
	for id := range s.threads {
		s.tids = append(s.tids, id)
	}
	sort.Ints(s.tids)
	for a, o := range d.Locks {
		s.locks[a] = o
		s.lockHash ^= lockEntry(a, o)
	}
	s.HeapNext = heapBase
	for _, h := range d.Heap {
		if h.Base+h.Size > s.HeapNext {
			s.HeapNext = h.Base + h.Size
		}
	}
	return s
}

// Clone returns an independent snapshot layered on s: an O(1) copy-on-write
// fork sharing the parent's state and the (immutable) expressions. The
// child sees every constraint s holds now; constraints appended to s later
// are invisible to the child.
func (s *Snapshot) Clone() *Snapshot {
	lockUp := s.lockUp
	if len(s.locks) > 0 || len(s.lockDel) > 0 {
		lockUp = s
	}
	return &Snapshot{
		Pool:     s.Pool,
		Base:     s.Base,
		parent:   s,
		lockUp:   lockUp,
		tids:     s.tids,
		sess:     s.sess,
		pending:  slices.Clip(s.pending),
		Heap:     s.Heap,
		HeapNext: s.HeapNext,
		Depth:    s.Depth,
		memHash:  s.memHash,
		consHash: s.consHash,
		lockHash: s.lockHash,
	}
}

// memLookup finds the effective overlay entry for a, walking the chain.
func (s *Snapshot) memLookup(a uint32) (*symx.Expr, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if e, ok := cur.mem[a]; ok {
			return e, true
		}
	}
	return nil, false
}

// MemAt returns the (symbolic) value of memory word a.
func (s *Snapshot) MemAt(a uint32) *symx.Expr {
	if e, ok := s.memLookup(a); ok {
		return e
	}
	if !s.Base.InRange(a) {
		return symx.Const(0)
	}
	return symx.Const(s.Base.Load(a))
}

// SetMem overlays a symbolic value at address a (in this layer only).
func (s *Snapshot) SetMem(a uint32, e *symx.Expr) {
	if old, ok := s.memLookup(a); ok {
		s.memHash ^= mix(uint64(a), old.Hash())
	}
	s.memHash ^= mix(uint64(a), e.Hash())
	if s.mem == nil {
		s.mem = make(map[uint32]*symx.Expr)
	}
	s.mem[a] = e
}

// ForEachMem visits the effective memory overlay (youngest layer wins),
// in ascending address order.
func (s *Snapshot) ForEachMem(f func(a uint32, e *symx.Expr)) {
	seen := make(map[uint32]*symx.Expr)
	for cur := s; cur != nil; cur = cur.parent {
		for a, e := range cur.mem {
			if _, ok := seen[a]; !ok {
				seen[a] = e
			}
		}
	}
	addrs := make([]uint32, 0, len(seen))
	for a := range seen {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		f(a, seen[a])
	}
}

// OverlayLen returns the number of effective overlay entries.
func (s *Snapshot) OverlayLen() int {
	n := 0
	s.ForEachMem(func(uint32, *symx.Expr) { n++ })
	return n
}

// Reg returns the symbolic value of a register of thread tid.
func (s *Snapshot) Reg(tid int, r isa.Reg) (*symx.Expr, error) {
	t := s.Thread(tid)
	if t == nil {
		return nil, fmt.Errorf("symstate: no thread %d in snapshot", tid)
	}
	return t.Regs[r], nil
}

// Thread returns the thread state, or nil when the thread does not exist
// at this point of the (backward) reconstruction. The returned state is
// shared with ancestor snapshots — use MutableThread before mutating.
func (s *Snapshot) Thread(tid int) *ThreadState {
	for cur := s; cur != nil; cur = cur.parent {
		if t, ok := cur.threads[tid]; ok {
			return t // nil entry = deleted at this layer
		}
	}
	return nil
}

// MutableThread returns a thread state owned by this layer, copying the
// ancestor's state in on first use. It returns nil for a thread that does
// not exist.
func (s *Snapshot) MutableThread(tid int) *ThreadState {
	if t, ok := s.threads[tid]; ok {
		return t
	}
	t := s.Thread(tid)
	if t == nil {
		return nil
	}
	nt := t.Clone()
	if s.threads == nil {
		s.threads = make(map[int]*ThreadState)
	}
	s.threads[tid] = nt
	return nt
}

// DeleteThread removes tid from this layer onward (a spawn unwound).
func (s *Snapshot) DeleteThread(tid int) {
	if s.threads == nil {
		s.threads = make(map[int]*ThreadState)
	}
	s.threads[tid] = nil
	if i, live := slices.BinarySearch(s.tids, tid); live {
		s.tids = slices.Delete(slices.Clone(s.tids), i, i+1)
	}
}

// ThreadIDs returns the live thread ids in ascending order. The slice is
// shared with other snapshots: callers must not modify it.
func (s *Snapshot) ThreadIDs() []int { return s.tids }

// MaxThreadID returns the highest live thread id, or -1.
func (s *Snapshot) MaxThreadID() int {
	if len(s.tids) == 0 {
		return -1
	}
	return s.tids[len(s.tids)-1]
}

// LockOwner reports whether mutex a is held at this point, and by whom.
func (s *Snapshot) LockOwner(a uint32) (int, bool) {
	for cur := s; cur != nil; cur = cur.lockUp {
		if cur.lockDel[a] {
			return 0, false
		}
		if o, ok := cur.locks[a]; ok {
			return o, true
		}
	}
	return 0, false
}

// lockEntry is one held lock's term in lockHash.
func lockEntry(a uint32, owner int) uint64 { return mix(uint64(a), uint64(owner)) }

// SetLock records mutex a held by owner (in this layer).
func (s *Snapshot) SetLock(a uint32, owner int) {
	if old, held := s.LockOwner(a); held {
		s.lockHash ^= lockEntry(a, old)
	}
	s.lockHash ^= lockEntry(a, owner)
	if s.locks == nil {
		s.locks = make(map[uint32]int)
	}
	s.locks[a] = owner
	delete(s.lockDel, a)
}

// DeleteLock records mutex a free (in this layer).
func (s *Snapshot) DeleteLock(a uint32) {
	old, held := s.LockOwner(a)
	if !held {
		return
	}
	s.lockHash ^= lockEntry(a, old)
	delete(s.locks, a)
	if _, held := s.LockOwner(a); held {
		if s.lockDel == nil {
			s.lockDel = make(map[uint32]bool)
		}
		s.lockDel[a] = true
	}
}

// ForEachLock visits the effective lock table in ascending address order.
func (s *Snapshot) ForEachLock(f func(a uint32, owner int)) {
	type entry struct {
		owner int
		held  bool
	}
	seen := make(map[uint32]entry)
	for cur := s; cur != nil; cur = cur.lockUp {
		for a := range cur.lockDel {
			if _, ok := seen[a]; !ok {
				seen[a] = entry{}
			}
		}
		for a, o := range cur.locks {
			if _, ok := seen[a]; !ok {
				seen[a] = entry{owner: o, held: true}
			}
		}
	}
	addrs := make([]uint32, 0, len(seen))
	for a, e := range seen {
		if e.held {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		f(a, seen[a].owner)
	}
}

// NumLocks returns the number of held mutexes.
func (s *Snapshot) NumLocks() int {
	n := 0
	s.ForEachLock(func(uint32, int) { n++ })
	return n
}

// AddCons adds path constraints to the snapshot. The next Check or
// CheckWith decides them.
func (s *Snapshot) AddCons(cs ...solver.Constraint) {
	for _, c := range cs {
		s.consHash = mix(mix(s.consHash, c.L.Hash()^uint64(c.Rel)<<56), c.R.Hash())
	}
	s.pending = append(s.pending, cs...)
}

// Check decides the snapshot's constraint set: it propagates the
// constraints added since the last Check on top of the session and
// advances the session past them.
func (s *Snapshot) Check(opt solver.Options) solver.Result {
	res, sess := s.sess.Extend(s.pending, opt)
	// Not pending[:0]: clones may still read the backing array.
	s.sess, s.pending = sess, nil
	return res
}

// CheckWith decides the snapshot's constraint set ∧ extra without
// recording extra on the snapshot.
func (s *Snapshot) CheckWith(opt solver.Options, extra []solver.Constraint) solver.Result {
	if len(s.pending) > 0 {
		extra = slices.Concat(s.pending, extra)
	}
	return s.sess.CheckWith(extra, opt)
}

// Refute is Check for a caller that reads only whether the verdict is
// Unsat (solver.Session.ExtendRefute): it advances the session as Check
// does, but searches only a residue that a search could refute.
func (s *Snapshot) Refute(opt solver.Options) solver.Result {
	res, sess := s.sess.ExtendRefute(s.pending, opt)
	s.sess, s.pending = sess, nil
	return res
}

// RefuteWith is CheckWith for a caller that reads only whether the
// verdict is Unsat, and what propagation forced (solver.Session.RefuteWith).
func (s *Snapshot) RefuteWith(opt solver.Options, extra []solver.Constraint) solver.Result {
	if len(s.pending) > 0 {
		extra = slices.Concat(s.pending, extra)
	}
	return s.sess.RefuteWith(extra, opt)
}

// Fingerprint returns a structural hash of the snapshot's content:
// per-thread pc/state/registers, the effective memory overlay, the
// constraint chain, the lock table, and the allocator state. Equal
// snapshots always collide; distinct ones collide with probability
// ~2^-64. The search uses it to deduplicate equivalent frontier nodes.
func (s *Snapshot) Fingerprint() uint64 {
	h := mix(0xbb67ae8584caa73b, uint64(s.Depth))
	h = mix(h, s.memHash)
	h = mix(h, s.consHash)
	h = mix(h, uint64(s.HeapNext))
	for _, tid := range s.ThreadIDs() {
		h = mix(h, s.Thread(tid).hash(tid))
	}
	h = mix(h, s.lockHash)
	for _, obj := range s.Heap {
		h = mix(h, uint64(obj.Base))
		h = mix(h, uint64(obj.Size))
		h = mix(h, uint64(obj.AllocPC))
		if obj.Freed {
			h = mix(h, uint64(obj.FreePC)+1)
		}
	}
	return h
}

// ConcretizeMem materializes the snapshot's memory under a model: every
// overlaid expression evaluated by eval (a solver.Result's Evaluator, say)
// and stored into a View of the base image. The result shares every page
// of the base it does not write, so it costs the pages the overlay
// touches; the base must not change while it is in use. Expressions that
// fail to evaluate (division by zero under the model) resolve to zero —
// they are unconstrained by definition or the model would not have
// validated.
func (s *Snapshot) ConcretizeMem(eval func(*symx.Expr) (int64, bool)) *mem.Image {
	img := s.Base.View()
	s.ForEachMem(func(a uint32, e *symx.Expr) {
		v, ok := eval(e)
		if !ok {
			v = 0
		}
		if img.InRange(a) {
			img.Store(a, v)
		}
	})
	return img
}

// ConcretizeRegs materializes thread tid's register file under a model,
// evaluated as ConcretizeMem does.
func (s *Snapshot) ConcretizeRegs(tid int, eval func(*symx.Expr) (int64, bool)) ([isa.NumRegs]int64, error) {
	var out [isa.NumRegs]int64
	t := s.Thread(tid)
	if t == nil {
		return out, fmt.Errorf("symstate: no thread %d", tid)
	}
	for r := 0; r < isa.NumRegs; r++ {
		v, ok := eval(t.Regs[r])
		if !ok {
			v = 0
		}
		out[r] = v
	}
	return out, nil
}

// String summarizes the snapshot.
func (s *Snapshot) String() string {
	return fmt.Sprintf("snapshot{depth=%d threads=%v overlay=%d pending=%d}",
		s.Depth, s.ThreadIDs(), s.OverlayLen(), len(s.pending))
}
