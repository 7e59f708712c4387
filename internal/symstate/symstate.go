// Package symstate implements the paper's symbolic snapshots (§2.3): an
// image of the program's state in which some locations hold concrete
// values (ultimately rooted in the coredump) and others hold symbolic
// expressions subject to constraints. RES manufactures one snapshot per
// backward step hypothesis; the snapshot for step k over-approximates
// every program state that could have existed k blocks before the failure.
//
// Snapshots are copy-on-write: Clone is O(1) and returns a child layered
// on its parent, holding only the deltas (memory overlay writes, thread
// mutations, lock-table changes) the child itself makes, plus a
// persistent-append constraint chain. Reads walk the layer chain, whose
// length is the search depth — so a depth-d node costs O(its own step) to
// create, not O(accumulated state). Flatten materializes the full view
// for consumers that want a self-contained snapshot.
//
// Each snapshot also maintains an incremental structural fingerprint
// (built on symx's cached expression hashes) identifying its
// (threads, overlay, constraints, locks, heap) content, which the search
// uses to deduplicate equivalent frontier nodes, and can carry a
// solver.Session holding the propagated solver state over its constraint
// chain, which makes per-step satisfiability checks incremental.
package symstate

import (
	"fmt"
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

	// cons holds the constraints appended by this layer; the full set is
	// the chain's concatenation, frozen per layer by parentConsLen.
	cons          []solver.Constraint
	parentConsLen int // parent's visible cons length at fork time
	consLen       int // total visible constraints (chain-cumulative)

	// Sess, when non-nil, is the propagated solver state over the first
	// sessLen constraints of the chain. Check keeps it in step; callers
	// that append constraints directly just call Check to re-sync.
	Sess    *solver.Session
	sessLen int

	Heap     []coredump.HeapObject // allocator records at this point (replaced wholesale, never mutated in place)
	HeapNext uint32                // bump pointer at this point

	Depth int // backward steps taken from the dump

	// Incrementally maintained fingerprint components.
	memHash  uint64 // XOR over (addr, expr-hash) of the effective overlay
	consHash uint64 // order-sensitive hash of the constraint chain
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
		Heap:    append([]coredump.HeapObject(nil), d.Heap...),
	}
	for _, t := range d.Threads {
		ts := &ThreadState{PC: t.PC, State: t.State, WaitAddr: t.WaitAddr}
		for r := 0; r < isa.NumRegs; r++ {
			ts.Regs[r] = symx.Const(t.Regs[r])
		}
		s.threads[t.ID] = ts
	}
	for a, o := range d.Locks {
		s.locks[a] = o
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
	return &Snapshot{
		Pool:          s.Pool,
		Base:          s.Base,
		parent:        s,
		Heap:          s.Heap,
		HeapNext:      s.HeapNext,
		parentConsLen: len(s.cons),
		consLen:       s.consLen,
		Sess:          s.Sess,
		sessLen:       s.sessLen,
		Depth:         s.Depth,
		memHash:       s.memHash,
		consHash:      s.consHash,
	}
}

// Flatten materializes the full view as a single root-form snapshot with
// no parent chain: the escape hatch for consumers that want O(1) reads or
// a snapshot that outlives its ancestry. The flattened snapshot is
// semantically identical (same fingerprint, same constraint order).
func (s *Snapshot) Flatten() *Snapshot {
	ns := &Snapshot{
		Pool:     s.Pool,
		Base:     s.Base,
		mem:      make(map[uint32]*symx.Expr),
		threads:  make(map[int]*ThreadState),
		locks:    make(map[uint32]int),
		cons:     s.Cons(),
		consLen:  s.consLen,
		Sess:     s.Sess,
		sessLen:  s.sessLen,
		Heap:     append([]coredump.HeapObject(nil), s.Heap...),
		HeapNext: s.HeapNext,
		Depth:    s.Depth,
		memHash:  s.memHash,
		consHash: s.consHash,
	}
	s.ForEachMem(func(a uint32, e *symx.Expr) { ns.mem[a] = e })
	for _, tid := range s.ThreadIDs() {
		ns.threads[tid] = s.Thread(tid).Clone()
	}
	s.ForEachLock(func(a uint32, owner int) { ns.locks[a] = owner })
	return ns
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
}

// ThreadIDs returns the live thread ids in ascending order.
func (s *Snapshot) ThreadIDs() []int {
	seen := make(map[int]bool)
	var out []int
	for cur := s; cur != nil; cur = cur.parent {
		for id, t := range cur.threads {
			if seen[id] {
				continue
			}
			seen[id] = true
			if t != nil {
				out = append(out, id)
			}
		}
	}
	sort.Ints(out)
	return out
}

// MaxThreadID returns the highest live thread id, or -1.
func (s *Snapshot) MaxThreadID() int {
	ids := s.ThreadIDs() // ascending
	if len(ids) == 0 {
		return -1
	}
	return ids[len(ids)-1]
}

// LockOwner reports whether mutex a is held at this point, and by whom.
func (s *Snapshot) LockOwner(a uint32) (int, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if cur.lockDel[a] {
			return 0, false
		}
		if o, ok := cur.locks[a]; ok {
			return o, true
		}
	}
	return 0, false
}

// SetLock records mutex a held by owner (in this layer).
func (s *Snapshot) SetLock(a uint32, owner int) {
	if s.locks == nil {
		s.locks = make(map[uint32]int)
	}
	s.locks[a] = owner
	delete(s.lockDel, a)
}

// DeleteLock records mutex a free (in this layer).
func (s *Snapshot) DeleteLock(a uint32) {
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
	for cur := s; cur != nil; cur = cur.parent {
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

// AddCons appends path constraints to this layer.
func (s *Snapshot) AddCons(cs ...solver.Constraint) {
	for _, c := range cs {
		s.consHash = mix(mix(s.consHash, c.L.Hash()^uint64(c.Rel)<<56), c.R.Hash())
	}
	s.cons = append(s.cons, cs...)
	s.consLen += len(cs)
}

// Cons flattens the constraint chain, oldest first. The result is freshly
// allocated; callers may append to it.
func (s *Snapshot) Cons() []solver.Constraint {
	out := make([]solver.Constraint, s.consLen)
	i := s.consLen
	visible := len(s.cons)
	for cur := s; cur != nil; {
		i -= visible
		copy(out[i:], cur.cons[:visible])
		visible = cur.parentConsLen
		cur = cur.parent
	}
	return out
}

// ConsLen returns the number of constraints in the chain.
func (s *Snapshot) ConsLen() int { return s.consLen }

// consDelta returns the constraints appended since the session last saw
// the chain. Sessions are attached at the chain head, so the delta
// normally lives in this layer's own slice; a session inherited from
// below a fork point falls back to the flattened tail.
func (s *Snapshot) consDelta() []solver.Constraint {
	n := s.consLen - s.sessLen
	if n <= 0 {
		return nil
	}
	if n <= len(s.cons) {
		return s.cons[len(s.cons)-n:]
	}
	all := s.Cons()
	return all[len(all)-n:]
}

// Check decides the snapshot's constraint set. With a session attached it
// solves incrementally — only constraints appended since the last Check
// are propagated — and advances the session; without one it solves the
// flattened chain from scratch.
func (s *Snapshot) Check(opt solver.Options) solver.Result {
	if s.Sess == nil {
		return solver.Check(s.Cons(), opt)
	}
	res, child := s.Sess.Extend(s.consDelta(), opt)
	s.Sess, s.sessLen = child, s.consLen
	return res
}

// CheckWith decides Cons() ∧ extra without recording extra on the
// snapshot, incrementally when a session is attached.
func (s *Snapshot) CheckWith(opt solver.Options, extra []solver.Constraint) solver.Result {
	if s.Sess == nil {
		return solver.Check(append(s.Cons(), extra...), opt)
	}
	delta := s.consDelta()
	if len(delta) > 0 {
		extra = append(append([]solver.Constraint(nil), delta...), extra...)
	}
	return s.Sess.CheckWith(extra, opt)
}

// AttachSession seeds the snapshot with the propagated solver state over
// its current constraint chain. The search root calls this once; Check
// keeps descendants in step from there.
func (s *Snapshot) AttachSession(opt solver.Options) {
	sess := solver.NewSession()
	if s.consLen > 0 {
		_, sess = sess.Extend(s.Cons(), opt)
	}
	s.Sess, s.sessLen = sess, s.consLen
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
	s.ForEachLock(func(a uint32, owner int) {
		h = mix(mix(h, uint64(a)), uint64(owner))
	})
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

// ConcretizeMem materializes the snapshot's memory under a model: the base
// image with every overlaid expression evaluated. Expressions that fail to
// evaluate (division by zero under the model) resolve to zero — they are
// unconstrained by definition or the model would not have validated.
func (s *Snapshot) ConcretizeMem(m symx.Model) *mem.Image {
	img := s.Base.Clone()
	s.ForEachMem(func(a uint32, e *symx.Expr) {
		v, ok := e.Eval(m)
		if !ok {
			v = 0
		}
		if img.InRange(a) {
			img.Store(a, v)
		}
	})
	return img
}

// ConcretizeRegs materializes thread tid's register file under a model.
func (s *Snapshot) ConcretizeRegs(tid int, m symx.Model) ([isa.NumRegs]int64, error) {
	var out [isa.NumRegs]int64
	t := s.Thread(tid)
	if t == nil {
		return out, fmt.Errorf("symstate: no thread %d", tid)
	}
	for r := 0; r < isa.NumRegs; r++ {
		v, ok := t.Regs[r].Eval(m)
		if !ok {
			v = 0
		}
		out[r] = v
	}
	return out, nil
}

// SymbolicFootprint returns the addresses currently overlaid with
// expressions that still mention variables (the "currently unknown" part
// of the snapshot — useful for reporting and tests).
func (s *Snapshot) SymbolicFootprint() []uint32 {
	var out []uint32
	s.ForEachMem(func(a uint32, e *symx.Expr) {
		if e.HasVars() {
			out = append(out, a)
		}
	})
	return out
}

// String summarizes the snapshot.
func (s *Snapshot) String() string {
	return fmt.Sprintf("snapshot{depth=%d threads=%v overlay=%d cons=%d}",
		s.Depth, s.ThreadIDs(), s.OverlayLen(), s.consLen)
}
