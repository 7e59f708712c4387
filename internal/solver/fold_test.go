package solver

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"res/internal/symx"
)

// forcedOf reads the value propagation forced on v in r.
func forcedOf(r Result, v symx.Var) (int64, bool) {
	return r.Forced(v)
}

// folded reports whether s holds all its bindings in its shared base:
// the check that made it folded them, or it has bound nothing since.
func folded(s *Session) bool {
	return len(s.st.bindings.own) == 0 && len(s.st.bindings.base) > 0
}

// chainGen draws the steps of a long session: each step binds new
// variables, defines new ones over earlier ones, narrows and binds free
// variables, and now and then excludes a value of a free variable with a
// disequality that stays residual until the variable is bound. Each
// constraint is resolved in the propagation round that first sees it, or
// stays residual unchanged, so a session extended step by step and a Check
// of the concatenation bind, define and narrow the same variables in the
// same order.
type chainGen struct {
	rng  *rand.Rand
	vars []genVar // indexed by variable
}

// genVar is what the generator knows of one variable.
type genVar struct {
	free   bool // created unconstrained; only order constraints and a binding reach it
	bound  bool
	lo, hi int64   // a free variable's interval; it always holds 0
	ne     []int64 // values a residual disequality excludes
}

func newChainGen(seed int64) *chainGen {
	return &chainGen{rng: rand.New(rand.NewSource(seed))}
}

// clone copies the generator's knowledge, for a sibling step or one that
// may be dropped. The random source stays shared.
func (g *chainGen) clone() *chainGen {
	c := &chainGen{rng: g.rng, vars: slices.Clone(g.vars)}
	for i := range c.vars {
		c.vars[i].ne = slices.Clip(c.vars[i].ne)
	}
	return c
}

func (g *chainGen) fresh(free bool) symx.Var {
	g.vars = append(g.vars, genVar{free: free, lo: -1 << 20, hi: 1 << 20})
	return symx.Var(len(g.vars) - 1)
}

// pick returns an existing variable, favouring recent ones so that
// definitions build on definitions.
func (g *chainGen) pick() symx.Var {
	n := len(g.vars)
	if n > 16 && g.rng.Intn(2) == 0 {
		return symx.Var(n - 1 - g.rng.Intn(16))
	}
	return symx.Var(g.rng.Intn(n))
}

// pickFree returns a free variable nothing binds yet, if there is one
// among a few tries.
func (g *chainGen) pickFree() (symx.Var, bool) {
	for try := 0; try < 8; try++ {
		v := g.pick()
		if gv := &g.vars[v]; gv.free && !gv.bound {
			return v, true
		}
	}
	return 0, false
}

// residualVars counts the free variables a residual disequality still
// waits on; the generator keeps it small so the search phase stays cheap.
func (g *chainGen) residualVars() int {
	n := 0
	for i := range g.vars {
		if gv := &g.vars[i]; gv.free && !gv.bound && len(gv.ne) > 0 {
			n++
		}
	}
	return n
}

// twoValued creates a free variable confined to an interval of two
// values around 0, with one of them marked excluded, and returns the
// constraints that confine it.
func (g *chainGen) twoValued() (symx.Var, []Constraint) {
	v := g.fresh(true)
	gv := &g.vars[v]
	gv.lo = -g.rng.Int63n(2)
	gv.hi = gv.lo + 1
	gv.ne = append(gv.ne, gv.lo+g.rng.Int63n(2))
	return v, []Constraint{Le(symx.Const(gv.lo), symx.VarExpr(v)), Le(symx.VarExpr(v), symx.Const(gv.hi))}
}

// finiteResidue reports whether every free variable a residual
// disequality waits on has at most two values, so that a search covers
// the residue's whole domain.
func (g *chainGen) finiteResidue() bool {
	for i := range g.vars {
		if gv := &g.vars[i]; gv.free && !gv.bound && len(gv.ne) > 0 && gv.hi-gv.lo > 1 {
			return false
		}
	}
	return true
}

func (g *chainGen) expr() *symx.Expr {
	a := symx.VarExpr(g.pick())
	k := symx.Const(g.rng.Int63n(64) - 32)
	switch g.rng.Intn(5) {
	case 0:
		return symx.Binary(symx.OpAdd, a, symx.VarExpr(g.pick()))
	case 1:
		return symx.Binary(symx.OpSub, a, k)
	case 2:
		return symx.Binary(symx.OpMul, a, symx.Const(3))
	case 3:
		return symx.Binary(symx.OpXor, symx.Binary(symx.OpAdd, a, symx.VarExpr(g.pick())), k)
	}
	return symx.Binary(symx.OpAnd, a, symx.VarExpr(g.pick()))
}

// step draws one step's constraints and records their effect. With
// contradict set it adds a constraint that contradicts the rest.
func (g *chainGen) step(contradict bool) []Constraint {
	var cs []Constraint
	for n := 1 + g.rng.Intn(4); n > 0; n-- {
		k := g.rng.Intn(22)
		if len(g.vars) == 0 {
			k = 0
		}
		switch {
		case k < 5: // bind a new variable
			v := symx.VarExpr(g.fresh(false))
			c := symx.Const(g.rng.Int63n(2001) - 1000)
			if k == 0 {
				cs = append(cs, Eq(c, v))
			} else {
				cs = append(cs, Eq(v, c))
			}
		case k < 10: // define a new variable over earlier ones
			e := g.expr()
			cs = append(cs, Eq(symx.VarExpr(g.fresh(false)), e))
		case k < 12: // a new free variable, narrowed at once
			v := g.fresh(true)
			g.vars[v].hi = g.rng.Int63n(100)
			cs = append(cs, Le(symx.VarExpr(v), symx.Const(g.vars[v].hi)))
		case k < 15: // narrow a free variable
			v, ok := g.pickFree()
			if !ok {
				continue
			}
			gv := &g.vars[v]
			if g.rng.Intn(8) == 0 && !slices.Contains(gv.ne, 0) {
				// Pin it: the interval becomes {0} and binds v.
				gv.lo, gv.hi, gv.bound = 0, 0, true
				cs = append(cs, Le(symx.VarExpr(v), symx.Const(0)), Le(symx.Const(0), symx.VarExpr(v)))
				continue
			}
			lo := -g.rng.Int63n(-gv.lo + 1)
			if lo == gv.hi && slices.Contains(gv.ne, lo) {
				continue // it would pin v onto an excluded value
			}
			gv.lo = lo
			cs = append(cs, Lt(symx.Const(gv.lo-1), symx.VarExpr(v)))
		case k < 18: // bind a free variable inside its interval, off its excluded values
			v, ok := g.pickFree()
			if !ok {
				continue
			}
			gv := &g.vars[v]
			x := gv.lo + g.rng.Int63n(gv.hi-gv.lo+1)
			if slices.Contains(gv.ne, x) {
				continue
			}
			gv.bound = true
			cs = append(cs, Eq(symx.VarExpr(v), symx.Const(x)))
		case k < 20: // exclude a value of a free variable
			v, ok := g.pickFree()
			if !ok || g.residualVars() >= 3 {
				continue
			}
			gv := &g.vars[v]
			x := gv.lo + g.rng.Int63n(gv.hi-gv.lo+1)
			gv.ne = append(gv.ne, x)
			cs = append(cs, Ne(symx.VarExpr(v), symx.Const(x)))
		default: // a new free variable confined to two values, one of them excluded
			if g.residualVars() >= 3 {
				continue
			}
			v, x := g.twoValued()
			cs = append(cs, x...)
			cs = append(cs, Ne(symx.VarExpr(v), symx.Const(g.vars[v].ne[0])))
		}
	}
	if contradict {
		switch v, ok := g.pickFree(); {
		case g.rng.Intn(2) == 0 && g.finiteResidue():
			// Exclude both values of a new two-valued variable: only a
			// search that covers every residual domain refutes it.
			v, x := g.twoValued()
			cs = append(cs, x...)
			cs = append(cs, Ne(symx.VarExpr(v), symx.Const(g.vars[v].lo)), Ne(symx.VarExpr(v), symx.Const(g.vars[v].hi)))
		case ok && len(g.vars[v].ne) > 0: // bind onto an excluded value
			cs = append(cs, Eq(symx.VarExpr(v), symx.Const(g.vars[v].ne[0])))
		case ok: // empty the interval
			lo := symx.Const(g.vars[v].lo)
			cs = append(cs, Le(lo, symx.VarExpr(v)), Lt(symx.VarExpr(v), lo))
		default: // bind a new variable twice
			x := symx.VarExpr(g.fresh(false))
			cs = append(cs, Eq(x, symx.Const(1)), Eq(x, symx.Const(2)))
		}
	}
	return cs
}

// sameResult compares a session's result with Check's over the same
// conjunction: the verdict, what propagation forced on each of the first
// nvars variables, the variables the session newly forced (in Check's
// order, less those its parent forced), and the model. With parentForced
// nil, want is another session check and the newly forced lists must be
// equal.
func sameResult(got, want Result, nvars int, parentForced map[symx.Var]bool) error {
	if got.Verdict != want.Verdict {
		return fmt.Errorf("verdict %v (%s), want %v (%s)", got.Verdict, got.Reason, want.Verdict, want.Reason)
	}
	if got.Verdict == Unsat {
		return nil
	}
	for v := symx.Var(0); int(v) < nvars; v++ {
		g, gok := forcedOf(got, v)
		w, wok := forcedOf(want, v)
		if g != w || gok != wok {
			return fmt.Errorf("forced v%d = %d (%v), want %d (%v)", v, g, gok, w, wok)
		}
	}
	var fresh []symx.Var
	for _, v := range want.NewlyForced {
		if !parentForced[v] {
			fresh = append(fresh, v)
		}
	}
	if !slices.Equal(got.NewlyForced, fresh) {
		return fmt.Errorf("newly forced %v, want %v", got.NewlyForced, fresh)
	}
	gm, wm := got.Model(), want.Model()
	if len(gm) != len(wm) {
		return fmt.Errorf("model has %d values, want %d", len(gm), len(wm))
	}
	for v, w := range wm {
		if g, ok := gm[v]; !ok || g != w {
			return fmt.Errorf("model v%d = %d (%v), want %d", v, g, ok, w)
		}
	}
	return nil
}

// forcedSet lists the variables r forced among the first nvars.
func forcedSet(r Result, nvars int) map[symx.Var]bool {
	out := make(map[symx.Var]bool)
	for v := symx.Var(0); int(v) < nvars; v++ {
		if _, ok := forcedOf(r, v); ok {
			out[v] = true
		}
	}
	return out
}

// sameRefutation compares a refutation-only check with Check's result
// over the same conjunction: Unsat exactly when Check is, for the same
// reason, and otherwise the same forced values and newly forced
// variables; a refutation that searched has Check's verdict and model.
func sameRefutation(got, want Result, nvars int, parentForced map[symx.Var]bool) error {
	if got.Verdict != Unsat && want.Verdict != Unsat && got.Reason == "not searched" {
		want.Verdict, want.model = Unknown, nil
	}
	if err := sameResult(got, want, nvars, parentForced); err != nil {
		return fmt.Errorf("refutation: %v", err)
	}
	if got.Verdict == Unsat && got.Reason != want.Reason {
		return fmt.Errorf("refutation: unsat (%s), want unsat (%s)", got.Reason, want.Reason)
	}
	return nil
}

// sameAsFresh holds a check that adds nothing to a kept session to a
// fresh solve of the session's residue, which a copy of the session
// without its remembered outcome makes.
func sameAsFresh(s *Session, nvars int) error {
	return sameResult(s.CheckWith(nil, Options{}), (&Session{st: s.st}).CheckWith(nil, Options{}), nvars, nil)
}

// TestSessionRemembersOutcome holds a check that adds nothing to a fresh
// solve of the session's residue under the options it is given: the
// ones the check that built the session ran under, and each of the
// search options changed. The residue is solved by the randomized phase,
// so each change moves the outcome.
func TestSessionRemembersOutcome(t *testing.T) {
	x := symx.VarExpr(0)
	res, sess := NewSession().Extend([]Constraint{Eq(symx.Binary(symx.OpShr, x, symx.Const(8)), symx.Const(3))}, Options{})
	if res.Verdict != Sat {
		t.Fatalf("extend: %v (%s)", res.Verdict, res.Reason)
	}
	base := sess.CheckWith(nil, Options{})
	for _, c := range []struct {
		opt   Options
		moves bool
	}{
		{Options{}, false},
		{DefaultOptions(), false},
		{Options{Seed: 2}, true},
		{Options{MaxEnum: 5}, true},
		{Options{RandomTries: 1}, true},
	} {
		opt := c.opt
		got := sess.CheckWith(nil, opt)
		want := (&Session{st: sess.st}).CheckWith(nil, opt)
		if err := sameResult(got, want, 1, nil); err != nil {
			t.Errorf("%+v: %v", opt, err)
		}
		if got.ModelsTried != want.ModelsTried || got.Reason != want.Reason {
			t.Errorf("%+v: %d models tried (%s), want %d (%s)", opt, got.ModelsTried, got.Reason, want.ModelsTried, want.Reason)
		}
		if c.moves && sameResult(want, base, 1, nil) == nil && want.ModelsTried == base.ModelsTried {
			t.Errorf("%+v: the outcome does not move, so the option goes untested", opt)
		}
	}
}

// TestSessionFoldMatchesCheck extends one session 300 times with seeded
// random bindings, definitions, order constraints, residual disequalities
// and variables confined to two values, and holds every check to Check
// over the concatenation: the verdict, the forced value of every
// variable, the order of the newly forced ones and the model. Every few
// steps, and after every fold, three siblings fork from the current
// session and each checks a step and a grandchild step of its own; one
// step in twenty contradicts itself and is dropped, some of them refuted
// only by a search that covers every residual domain. Every step's
// refutation-only check must be Unsat exactly when Check is, and the
// session it keeps must check as Extend's does. At every kept session a
// check that adds nothing must match a fresh solve. The session must fold
// many times on the way.
func TestSessionFoldMatchesCheck(t *testing.T) {
	g := newChainGen(23)
	sess := NewSession()
	var all []Constraint
	parentForced := map[symx.Var]bool{}
	steps, unsat, siblings, search, folds, foldedParents, exhausted := 0, 0, 0, 0, 0, 0, 0
	refuted, refuteSearched := 0, 0
	for steps < 300 {
		if steps%7 == 3 || folded(sess) {
			if folded(sess) {
				foldedParents++
			}
			for k := 0; k < 3; k++ {
				sg := g.clone()
				cs := sg.step(false)
				res, child := sess.Extend(cs, Options{})
				flat := append(slices.Clip(all), cs...)
				want := Check(flat, Options{})
				if err := sameResult(res, want, len(sg.vars), parentForced); err != nil {
					t.Fatalf("step %d sibling %d: %v", steps, k, err)
				}
				if err := sameRefutation(sess.RefuteWith(cs, Options{}), want, len(sg.vars), parentForced); err != nil {
					t.Fatalf("step %d sibling %d: %v", steps, k, err)
				}
				if res.Verdict == Unsat {
					continue
				}
				if err := sameAsFresh(child, len(sg.vars)); err != nil {
					t.Fatalf("step %d sibling %d: check that adds nothing: %v", steps, k, err)
				}
				cs2 := sg.step(false)
				res2 := child.CheckWith(cs2, Options{})
				want2 := Check(append(flat, cs2...), Options{})
				if err := sameResult(res2, want2, len(sg.vars), forcedSet(want, len(sg.vars))); err != nil {
					t.Fatalf("step %d sibling %d grandchild: %v", steps, k, err)
				}
				siblings++
			}
		}
		next := g.clone()
		cs := next.step(next.rng.Intn(20) == 0)
		res, child := sess.Extend(cs, Options{})
		want := Check(append(slices.Clip(all), cs...), Options{})
		if err := sameResult(res, want, len(next.vars), parentForced); err != nil {
			t.Fatalf("step %d: %v\nadded %s", steps, err, String(cs))
		}
		ref, refChild := sess.ExtendRefute(cs, Options{})
		if err := sameRefutation(ref, want, len(next.vars), parentForced); err != nil {
			t.Fatalf("step %d: %v\nadded %s", steps, err, String(cs))
		}
		if ref.Verdict == Unsat {
			refuted++
		}
		if ref.Reason != "not searched" && len(refChild.st.pending) > 0 {
			refuteSearched++
		}
		if want.Reason == "finite domains exhausted" {
			exhausted++
		}
		if res.Verdict == Unsat {
			unsat++
			continue
		}
		if err := sameAsFresh(child, len(next.vars)); err != nil {
			t.Fatalf("step %d: check that adds nothing: %v", steps, err)
		}
		if refChild.known && len(cs) > 0 {
			t.Fatalf("step %d: a refutation-only check's session remembers an outcome", steps)
		}
		if err := sameResult(refChild.CheckWith(nil, Options{}), (&Session{st: child.st}).CheckWith(nil, Options{}), len(next.vars), nil); err != nil {
			t.Fatalf("step %d: the refutation-only check's session: %v", steps, err)
		}
		if res.ModelsTried > 0 {
			search++
		}
		if folded(child) && len(sess.st.bindings.own) > 0 {
			folds++
		}
		g, sess, all = next, child, append(all, cs...)
		parentForced = forcedSet(want, len(g.vars))
		steps++
	}
	if unsat == 0 || search == 0 || siblings < 100 || folds < 10 || foldedParents < 10 || exhausted == 0 || refuted != unsat || refuteSearched == 0 {
		t.Fatalf("%d contradicting steps (%d exhausted by search, %d refuted), %d steps searched (%d by the refutation), %d siblings, %d folds, %d folded parents",
			unsat, exhausted, refuted, search, refuteSearched, siblings, folds, foldedParents)
	}
	t.Logf("%d steps over %d variables and %d constraints: %d contradicting steps dropped (%d exhausted by search), %d searched (%d by the refutation), %d siblings, %d folds, %d folded parents",
		steps, len(g.vars), len(all), unsat, exhausted, search, refuteSearched, siblings, folds, foldedParents)
}

// TestFoldedSessionConcurrent extends one deep, folded session from 8
// goroutines at once. Each checks a step of its own and a check that
// adds nothing, which reads the session's remembered outcome, and then
// extends a chain of 40 steps from the session, long enough to fold on
// the way, and holds every result to the one a lone caller got. Run it
// under -race: a fold must build new maps, because the forks of one
// session share its base.
func TestFoldedSessionConcurrent(t *testing.T) {
	g := newChainGen(31)
	sess := NewSession()
	for steps := 0; steps < 150 || !folded(sess); {
		next := g.clone()
		res, child := sess.Extend(next.step(false), Options{})
		if res.Verdict == Unsat {
			continue
		}
		g, sess = next, child
		steps++
	}
	type job struct {
		chain [][]Constraint
		want  []Result
		nvars int
		folds int
	}
	jobs := make([]job, 8)
	for i := range jobs {
		jg, js := g.clone(), sess
		j := &jobs[i]
		for len(j.chain) < 40 {
			cs := jg.step(false)
			res, child := js.Extend(cs, Options{})
			if res.Verdict != Sat {
				t.Fatalf("job %d step %d: %v (%s)", i, len(j.chain), res.Verdict, res.Reason)
			}
			if folded(child) && len(js.st.bindings.own) > 0 {
				j.folds++
			}
			j.chain, j.want, js = append(j.chain, cs), append(j.want, res), child
		}
		if j.folds == 0 {
			t.Fatalf("job %d: the chain never folds", i)
		}
		j.nvars = len(jg.vars)
	}
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := &jobs[i]
			if err := sameResult(sess.CheckWith(j.chain[0], Options{}), j.want[0], j.nvars, nil); err != nil {
				t.Errorf("goroutine %d: check: %v", i, err)
			}
			if err := sameAsFresh(sess, j.nvars); err != nil {
				t.Errorf("goroutine %d: check that adds nothing: %v", i, err)
			}
			js := sess
			for k, cs := range j.chain {
				var res Result
				res, js = js.Extend(cs, Options{})
				if err := sameResult(res, j.want[k], j.nvars, nil); err != nil {
					t.Errorf("goroutine %d step %d: %v", i, k, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
