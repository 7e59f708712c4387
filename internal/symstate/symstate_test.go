package symstate

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"res/internal/coredump"
	"res/internal/isa"
	"res/internal/mem"
	"res/internal/solver"
	"res/internal/symx"
)

func sampleDump() *coredump.Dump {
	d := &coredump.Dump{
		Mem:   mem.NewImage(128),
		Locks: map[uint32]int{50: 0},
		Heap:  []coredump.HeapObject{{Base: 21, Size: 4, FreePC: -1}},
	}
	d.Mem.Store(30, 7)
	th := coredump.Thread{ID: 0, PC: 5, State: coredump.ThreadRunnable}
	th.Regs[1] = 42
	d.Threads = append(d.Threads, th)
	d.Threads = append(d.Threads, coredump.Thread{ID: 1, PC: 9, State: coredump.ThreadBlocked, WaitAddr: 50})
	return d
}

func TestFromDump(t *testing.T) {
	pool := symx.NewPool()
	s := FromDump(sampleDump(), 20, pool)
	if got := s.MemAt(30); !s.MemAt(30).Equal(symx.Const(7)) {
		t.Errorf("MemAt(30) = %v", got)
	}
	r, err := s.Reg(0, 1)
	if err != nil || !r.Equal(symx.Const(42)) {
		t.Errorf("Reg = %v, %v", r, err)
	}
	if s.Thread(1).State != coredump.ThreadBlocked {
		t.Error("thread state lost")
	}
	if o, held := s.LockOwner(50); !held || o != 0 {
		t.Error("lock table lost")
	}
	// HeapNext derived from the top object: 21+4 = 25.
	if s.HeapNext != 25 {
		t.Errorf("HeapNext = %d", s.HeapNext)
	}
	ids := s.ThreadIDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("ids = %v", ids)
	}
	if s.MaxThreadID() != 1 {
		t.Errorf("max tid = %d", s.MaxThreadID())
	}
}

func TestCloneIsolation(t *testing.T) {
	pool := symx.NewPool()
	s := FromDump(sampleDump(), 20, pool)
	c := s.Clone()
	v := pool.FreshExpr("x")
	c.SetMem(30, v)
	c.MutableThread(0).Regs[1] = symx.Const(0)
	c.SetLock(51, 1)
	c.AddCons(solver.Eq(v, symx.Const(1)))
	other := []solver.Constraint{solver.Eq(v, symx.Const(2))}
	if !s.MemAt(30).Equal(symx.Const(7)) {
		t.Error("clone shares memory overlay")
	}
	if !s.Thread(0).Regs[1].Equal(symx.Const(42)) {
		t.Error("clone shares registers")
	}
	if s.NumLocks() != 1 {
		t.Error("clone shares locks")
	}
	if res := s.CheckWith(solver.Options{}, other); res.Verdict != solver.Sat {
		t.Errorf("parent sees the child's constraint: %v", res.Verdict)
	}
	// And the child sees its own layer over the parent's.
	if !c.MemAt(30).Equal(v) || !c.Thread(0).Regs[1].Equal(symx.Const(0)) {
		t.Error("child lost its delta")
	}
	if o, held := c.LockOwner(50); !held || o != 0 {
		t.Error("child lost the parent's lock table")
	}
	if c.NumLocks() != 2 {
		t.Errorf("child view: locks=%d", c.NumLocks())
	}
	if res := c.CheckWith(solver.Options{}, other); res.Verdict != solver.Unsat {
		t.Errorf("child lost its constraint: %v", res.Verdict)
	}
}

func TestCOWLayering(t *testing.T) {
	pool := symx.NewPool()
	s := FromDump(sampleDump(), 20, pool)
	a, b, cv := pool.FreshExpr("a"), pool.FreshExpr("b"), pool.FreshExpr("c")
	s.AddCons(solver.Ne(a, symx.Const(0)))
	// unsatWith reports whether snap's constraints contradict extra.
	unsatWith := func(snap *Snapshot, extra solver.Constraint) bool {
		return snap.CheckWith(solver.Options{}, []solver.Constraint{extra}).Verdict == solver.Unsat
	}

	// Child layered on the parent: deletions tombstone, constraints carry.
	c := s.Clone()
	c.DeleteThread(1)
	c.DeleteLock(50)
	c.AddCons(solver.Eq(b, symx.Const(2)))
	if ids := c.ThreadIDs(); len(ids) != 1 || ids[0] != 0 {
		t.Errorf("child threads = %v", ids)
	}
	if _, held := c.LockOwner(50); held {
		t.Error("tombstoned lock still held")
	}
	if !unsatWith(c, solver.Eq(a, symx.Const(0))) || !unsatWith(c, solver.Eq(b, symx.Const(3))) {
		t.Error("child does not see both its parent's constraint and its own")
	}
	// Parent unaffected.
	if ids := s.ThreadIDs(); len(ids) != 2 {
		t.Errorf("parent threads = %v", ids)
	}
	if _, held := s.LockOwner(50); !held {
		t.Error("parent lost its lock")
	}

	// Constraints appended to the parent AFTER the fork stay invisible to
	// the child.
	s.AddCons(solver.Eq(cv, symx.Const(3)))
	if unsatWith(c, solver.Eq(cv, symx.Const(4))) {
		t.Error("child sees the parent's post-fork constraint")
	}

	// A grandchild re-adding the deleted lock shadows the tombstone.
	g := c.Clone()
	g.SetLock(50, 1)
	if o, held := g.LockOwner(50); !held || o != 1 {
		t.Error("grandchild lock not visible")
	}
	if _, held := c.LockOwner(50); held {
		t.Error("grandchild write leaked into child")
	}
}

func TestFingerprintDiscriminates(t *testing.T) {
	pool := symx.NewPool()
	s := FromDump(sampleDump(), 20, pool)
	a, b := s.Clone(), s.Clone()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical snapshots fingerprint differently")
	}
	b.SetMem(33, symx.Const(9))
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("memory delta not reflected in fingerprint")
	}
	a.SetMem(33, symx.Const(9))
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal deltas fingerprint differently")
	}
	a.AddCons(solver.Eq(symx.Const(0), symx.Const(0)))
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("constraint delta not reflected in fingerprint")
	}
}

// TestFingerprintLockHistory: the fingerprint reads the effective lock
// table, not the layers that wrote it. Equal tables reached through
// different histories fingerprint equal; a different owner or a
// different held set fingerprints differently.
func TestFingerprintLockHistory(t *testing.T) {
	pool := symx.NewPool()
	s := FromDump(sampleDump(), 20, pool) // lock 50 held by thread 0
	want := s.Clone().Fingerprint()

	setThenDelete := s.Clone()
	setThenDelete.SetLock(60, 1)
	setThenDelete = setThenDelete.Clone()
	setThenDelete.DeleteLock(60)

	sameLayer := s.Clone()
	sameLayer.SetLock(60, 1)
	sameLayer.DeleteLock(60)
	sameLayer.DeleteLock(61) // never held

	ownerBack := s.Clone()
	ownerBack.SetLock(50, 1)
	ownerBack = ownerBack.Clone()
	ownerBack.SetLock(50, 0)

	reacquired := s.Clone()
	reacquired.DeleteLock(50)
	reacquired = reacquired.Clone()
	reacquired.SetLock(50, 0)

	for name, c := range map[string]*Snapshot{
		"set then delete in a child":  setThenDelete,
		"set then delete in a layer":  sameLayer,
		"owner replaced and restored": ownerBack,
		"released and reacquired":     reacquired,
	} {
		if got := c.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint %x, want %x", name, got, want)
		}
	}

	layered := s.Clone()
	layered.SetLock(60, 1)
	layered = layered.Clone()
	layered.SetLock(61, 0)
	flat := s.Clone()
	flat.SetLock(61, 0)
	flat.SetLock(60, 1)
	if layered.Fingerprint() != flat.Fingerprint() {
		t.Error("equal lock tables written in different orders fingerprint differently")
	}

	otherOwner := s.Clone()
	otherOwner.SetLock(50, 1)
	released := s.Clone()
	released.DeleteLock(50)
	extra := s.Clone()
	extra.SetLock(60, 0)
	seen := map[uint64]string{want: "dump", layered.Fingerprint(): "two more held"}
	for name, c := range map[string]*Snapshot{
		"other owner": otherOwner,
		"released":    released,
		"one more":    extra,
	} {
		fp := c.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s fingerprints as %s", name, prev)
		}
		seen[fp] = name
	}
}

// lockWalk is the lock table read by walking every layer: the reference
// ForEachLock, LockOwner and NumLocks must match.
func lockWalk(s *Snapshot) map[uint32]int {
	out := make(map[uint32]int)
	done := make(map[uint32]bool)
	for cur := s; cur != nil; cur = cur.parent {
		for a := range cur.lockDel {
			done[a] = true
		}
		for a, o := range cur.locks {
			if !done[a] {
				out[a] = o
				done[a] = true
			}
		}
	}
	return out
}

// TestLockTableThroughLockFreeLayers writes the lock table at the root,
// replaces an owner in one layer, deletes a lock in another and sets and
// deletes one within a third, with runs of layers that touch no lock
// between them, and holds every layer's ForEachLock (in ascending
// order), LockOwner and NumLocks to the walk of every layer.
func TestLockTableThroughLockFreeLayers(t *testing.T) {
	s := FromDump(sampleDump(), 20, symx.NewPool()) // lock 50 held by thread 0
	s.SetLock(51, 1)
	s.SetLock(53, 0)
	layers := []*Snapshot{s}
	lockFree := func(n int) {
		for ; n > 0; n-- {
			c := layers[len(layers)-1].Clone()
			c.SetMem(30, symx.Const(int64(len(layers))))
			layers = append(layers, c)
		}
	}
	write := func(f func(c *Snapshot)) {
		c := layers[len(layers)-1].Clone()
		f(c)
		layers = append(layers, c)
	}
	lockFree(4)
	write(func(c *Snapshot) { c.SetLock(50, 1) })
	lockFree(5)
	write(func(c *Snapshot) { c.DeleteLock(51) })
	lockFree(3)
	write(func(c *Snapshot) { c.SetLock(52, 0); c.DeleteLock(52) })
	lockFree(6)
	for i, c := range layers {
		want := lockWalk(c)
		var addrs []uint32
		c.ForEachLock(func(a uint32, o int) {
			addrs = append(addrs, a)
			if w, ok := want[a]; !ok || w != o {
				t.Errorf("layer %d: ForEachLock visits %d owned by %d, want %d (%v)", i, a, o, w, ok)
			}
		})
		if len(addrs) != len(want) || !slices.IsSorted(addrs) {
			t.Errorf("layer %d: ForEachLock visits %v, want the %d of %v in order", i, addrs, len(want), want)
		}
		if n := c.NumLocks(); n != len(want) {
			t.Errorf("layer %d: NumLocks %d, want %d", i, n, len(want))
		}
		for a := uint32(49); a < 55; a++ {
			o, held := c.LockOwner(a)
			if w, ok := want[a]; held != ok || o != w {
				t.Errorf("layer %d: LockOwner(%d) = %d, %v; want %d, %v", i, a, o, held, w, ok)
			}
		}
	}
	if got := lockWalk(layers[len(layers)-1]); len(got) != 2 || got[50] != 1 || got[53] != 0 {
		t.Fatalf("final table %v, want map[50:1 53:0]", got)
	}
}

func TestSessionIncrementalCheck(t *testing.T) {
	pool := symx.NewPool()
	s := FromDump(sampleDump(), 20, pool)
	x := pool.Fresh("x")
	s.AddCons(solver.Eq(symx.VarExpr(x), symx.Const(5)))
	if res := s.Check(solver.Options{}); res.Verdict != solver.Sat {
		t.Fatalf("parent check = %v", res.Verdict)
	}
	c := s.Clone()
	y := pool.Fresh("y")
	c.AddCons(solver.Eq(symx.VarExpr(y), symx.Binary(symx.OpAdd, symx.VarExpr(x), symx.Const(1))))
	res := c.Check(solver.Options{})
	if res.Verdict != solver.Sat || res.Model()[x] != 5 || res.Model()[y] != 6 {
		t.Errorf("incremental check = %+v", res)
	}
	// The parent's session is untouched and the child's can extend again.
	if res := s.CheckWith(solver.Options{}, []solver.Constraint{solver.Eq(symx.VarExpr(y), symx.Const(7))}); res.Verdict != solver.Sat {
		t.Errorf("parent check after child extend = %v", res.Verdict)
	}
	c.AddCons(solver.Eq(symx.VarExpr(y), symx.Const(7)))
	if res := c.Check(solver.Options{}); res.Verdict != solver.Unsat {
		t.Errorf("contradiction after extend = %v", res.Verdict)
	}
}

// TestCloneCarriesUncheckedConstraints forks snapshots whose constraints
// no Check has decided yet: a child inherits them, each generation's
// later additions stay on its own side of the fork, and a grandchild sees
// both generations.
func TestCloneCarriesUncheckedConstraints(t *testing.T) {
	pool := symx.NewPool()
	s := FromDump(sampleDump(), 20, pool)
	x, y, z := pool.Fresh("x"), pool.Fresh("y"), pool.Fresh("z")
	s.AddCons(solver.Eq(symx.VarExpr(x), symx.Const(5)))
	s.AddCons(solver.Ne(symx.VarExpr(y), symx.Const(0)))
	s.AddCons(solver.Le(symx.VarExpr(z), symx.Const(100)))
	if cap(s.pending) == len(s.pending) {
		t.Fatal("setup: the parent's pending list has no spare capacity to share")
	}

	c := s.Clone()
	c.AddCons(solver.Eq(symx.VarExpr(y), symx.Const(1)))
	// The parent's next constraint lands where the child's would have
	// without the fork's capacity cap, and contradicts it.
	s.AddCons(solver.Eq(symx.VarExpr(y), symx.Const(2)))

	res := c.Check(solver.Options{})
	if res.Verdict != solver.Sat || res.Model()[x] != 5 || res.Model()[y] != 1 {
		t.Fatalf("child check = %v %v, want x=5 y=1", res.Verdict, res.Model())
	}
	if res := c.CheckWith(solver.Options{}, []solver.Constraint{solver.Eq(symx.VarExpr(z), symx.Const(101))}); res.Verdict != solver.Unsat {
		t.Errorf("child lost the parent's unchecked bound on z: %v", res.Verdict)
	}
	d := s.Clone()
	res = s.Check(solver.Options{})
	if res.Verdict != solver.Sat || res.Model()[x] != 5 || res.Model()[y] != 2 {
		t.Fatalf("parent check = %v %v, want x=5 y=2", res.Verdict, res.Model())
	}
	// What the parent adds after its Check stays invisible to a child
	// forked before it, which still holds the parent's unchecked list.
	s.AddCons(solver.Eq(symx.VarExpr(z), symx.Const(7)))
	if res := d.CheckWith(solver.Options{}, []solver.Constraint{solver.Eq(symx.VarExpr(z), symx.Const(8))}); res.Verdict != solver.Sat {
		t.Errorf("child sees what the parent added after its Check: %v", res.Verdict)
	}
	res = d.Check(solver.Options{})
	if res.Verdict != solver.Sat || res.Model()[x] != 5 || res.Model()[y] != 2 {
		t.Fatalf("second child check = %v %v, want x=5 y=2", res.Verdict, res.Model())
	}

	// A grandchild of an unchecked child sees both generations.
	u, w := pool.Fresh("u"), pool.Fresh("w")
	c2 := s.Clone()
	c2.AddCons(solver.Eq(symx.VarExpr(u), symx.Binary(symx.OpAdd, symx.VarExpr(x), symx.VarExpr(y))))
	g := c2.Clone()
	g.AddCons(solver.Eq(symx.VarExpr(w), symx.Binary(symx.OpMul, symx.VarExpr(u), symx.Const(2))))
	res = g.Check(solver.Options{})
	if res.Verdict != solver.Sat || res.Model()[u] != 7 || res.Model()[w] != 14 {
		t.Fatalf("grandchild check = %v %v, want u=7 w=14", res.Verdict, res.Model())
	}
	if res := c2.CheckWith(solver.Options{}, []solver.Constraint{solver.Eq(symx.VarExpr(w), symx.Const(0))}); res.Verdict != solver.Sat {
		t.Errorf("child sees its grandchild's constraint: %v", res.Verdict)
	}
	if res := c2.Check(solver.Options{}); res.Verdict != solver.Sat || res.Model()[u] != 7 {
		t.Errorf("child check after the grandchild's = %v %v, want u=7", res.Verdict, res.Model())
	}
}

// TestSiblingsCheckConcurrently forks siblings of one parent that holds
// unchecked constraints and has them append and Check at once, the way
// the search's workers step from one node. Run it under -race.
func TestSiblingsCheckConcurrently(t *testing.T) {
	pool := symx.NewPool()
	s := FromDump(sampleDump(), 20, pool)
	x, y := pool.Fresh("x"), pool.Fresh("y")
	s.AddCons(solver.Eq(symx.VarExpr(x), symx.Const(5)))
	s.AddCons(solver.Ne(symx.VarExpr(x), symx.Const(6)))
	s.AddCons(solver.Le(symx.VarExpr(y), symx.Const(100)))
	const siblings = 4
	var wg sync.WaitGroup
	for i := 0; i < siblings; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			c := s.Clone()
			for step := int64(0); step < 20; step++ {
				// Each sibling pins y differently: a sibling that saw another's
				// constraint would turn Unsat.
				c.AddCons(solver.Eq(symx.VarExpr(y), symx.Const(i)))
				res := c.Check(solver.Options{})
				if res.Verdict != solver.Sat || res.Model()[x] != 5 || res.Model()[y] != i {
					t.Errorf("sibling %d step %d: %v %v", i, step, res.Verdict, res.Model())
					return
				}
			}
		}(int64(i))
	}
	wg.Wait()
	if res := s.CheckWith(solver.Options{}, []solver.Constraint{solver.Eq(symx.VarExpr(y), symx.Const(siblings))}); res.Verdict != solver.Sat {
		t.Errorf("parent sees a sibling's constraint: %v", res.Verdict)
	}
}

func TestConcretize(t *testing.T) {
	pool := symx.NewPool()
	s := FromDump(sampleDump(), 20, pool)
	x := pool.Fresh("x")
	s.SetMem(31, symx.VarExpr(x))
	s.MutableThread(0).Regs[2] = symx.Binary(symx.OpAdd, symx.VarExpr(x), symx.Const(1))
	m := func(e *symx.Expr) (int64, bool) { return e.Eval(symx.Model{x: 10}) }
	img := s.ConcretizeMem(m)
	if img.Load(31) != 10 || img.Load(30) != 7 {
		t.Errorf("concretized mem: %d, %d", img.Load(31), img.Load(30))
	}
	regs, err := s.ConcretizeRegs(0, m)
	if err != nil || regs[2] != 11 || regs[1] != 42 {
		t.Errorf("regs = %v, %v", regs, err)
	}
	if _, err := s.ConcretizeRegs(9, m); err == nil {
		t.Error("unknown thread accepted")
	}
}

func TestCheckIntegration(t *testing.T) {
	pool := symx.NewPool()
	s := FromDump(sampleDump(), 20, pool)
	x := pool.Fresh("x")
	s.AddCons(solver.Eq(symx.VarExpr(x), symx.Const(5)))
	res := s.Check(solver.Options{})
	if res.Verdict != solver.Sat || res.Model()[x] != 5 {
		t.Errorf("check = %+v", res)
	}
	s.AddCons(solver.Eq(symx.VarExpr(x), symx.Const(6)))
	if res := s.Check(solver.Options{}); res.Verdict != solver.Unsat {
		t.Errorf("contradiction = %v", res.Verdict)
	}
}

func TestRegErrors(t *testing.T) {
	pool := symx.NewPool()
	s := FromDump(sampleDump(), 20, pool)
	if _, err := s.Reg(7, isa.SP); err == nil {
		t.Error("unknown thread register read accepted")
	}
	if s.Thread(7) != nil {
		t.Error("Thread(7) should be nil")
	}
}

func TestMemAtOutOfRange(t *testing.T) {
	pool := symx.NewPool()
	s := FromDump(sampleDump(), 20, pool)
	if got := s.MemAt(100000); !got.Equal(symx.Const(0)) {
		t.Errorf("out-of-range MemAt = %v", got)
	}
}

// chainThreadIDs is the layer-chain walk ThreadIDs replaced, kept as its
// reference.
func chainThreadIDs(s *Snapshot) []int {
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

func TestThreadIDsAfterSpawnUnwind(t *testing.T) {
	d := sampleDump()
	d.Threads = append(d.Threads, coredump.Thread{ID: 2, PC: 3, State: coredump.ThreadRunnable})
	s := FromDump(d, 20, symx.NewPool())
	c := s.Clone()
	c.MutableThread(0).PC = 4
	c.DeleteThread(2) // the spawn of thread 2 unwound
	if got := c.ThreadIDs(); !slices.Equal(got, []int{0, 1}) || c.MaxThreadID() != 1 {
		t.Errorf("child ids = %v, max %d", got, c.MaxThreadID())
	}
	if got := s.ThreadIDs(); !slices.Equal(got, []int{0, 1, 2}) || s.MaxThreadID() != 2 {
		t.Errorf("parent ids = %v, max %d", got, s.MaxThreadID())
	}
	sib := s.Clone()
	sib.DeleteThread(7) // not live: nothing changes
	if got := sib.ThreadIDs(); !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("sibling ids = %v", got)
	}
	g := c.Clone()
	g.DeleteThread(1)
	g.DeleteThread(0)
	if got := g.ThreadIDs(); len(got) != 0 || g.MaxThreadID() != -1 {
		t.Errorf("grandchild ids = %v, max %d", got, g.MaxThreadID())
	}
	if got := c.ThreadIDs(); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("child ids after grandchild deletes = %v", got)
	}
}

// TestThreadIDsMatchChainWalk grows seeded random clone chains that
// mutate and delete threads, checking every layer against the walk.
func TestThreadIDsMatchChainWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		d := sampleDump()
		d.Threads = d.Threads[:0]
		n := 1 + rng.Intn(8)
		for id := 0; id < n; id++ {
			d.Threads = append(d.Threads, coredump.Thread{ID: id})
		}
		layers := []*Snapshot{FromDump(d, 20, symx.NewPool())}
		for depth := 1; depth <= 60; depth++ {
			c := layers[rng.Intn(len(layers))].Clone()
			switch rng.Intn(4) {
			case 0:
				c.DeleteThread(rng.Intn(n + 1))
			case 1:
				if th := c.MutableThread(rng.Intn(n)); th != nil {
					th.PC = depth
				}
			}
			layers = append(layers, c)
			for i, l := range layers {
				if got, want := l.ThreadIDs(), chainThreadIDs(l); !slices.Equal(got, want) {
					t.Fatalf("trial %d depth %d layer %d: ids %v, want %v", trial, depth, i, got, want)
				}
			}
		}
	}
}
