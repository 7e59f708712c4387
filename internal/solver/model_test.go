package solver

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"res/internal/symx"
)

// refDef is one definition in definition order, the form buildModelRef
// reads.
type refDef struct {
	v symx.Var
	e *symx.Expr
}

// buildModelRef is the solver's former model builder, kept as the
// reference the on-demand resolver must match value for value: bindings
// and search values first, then definitions pass by pass while every
// variable they mention has a value, then the rest in definition order
// with unassigned variables reading 0.
func buildModelRef(bindings map[symx.Var]int64, defs []refDef, search symx.Model) symx.Model {
	m := make(symx.Model, len(bindings)+len(search))
	for v, c := range bindings {
		m[v] = c
	}
	for v, c := range search {
		m[v] = c
	}
	for pass := 0; pass <= len(defs); pass++ {
		progress := false
		for _, d := range defs {
			if _, done := m[d.v]; done {
				continue
			}
			if val, ok := d.e.Eval(m); ok {
				vars := make(map[symx.Var]bool)
				d.e.Vars(vars)
				all := true
				for v := range vars {
					if _, has := m[v]; !has {
						all = false
						break
					}
				}
				if all || pass == len(defs) {
					m[d.v] = val
					progress = true
				}
			}
		}
		if !progress && pass > 0 {
			break
		}
	}
	for _, d := range defs {
		if _, done := m[d.v]; !done {
			if val, ok := d.e.Eval(m); ok {
				m[d.v] = val
			}
		}
	}
	return m
}

// orderedDefs lists a state's definitions in definition order.
func orderedDefs(defs layered[def]) []refDef {
	var out []refDef
	defs.all(func(v symx.Var, d def) { out = append(out, refDef{v: v, e: d.e}) })
	slices.SortFunc(out, func(a, b refDef) int { return defs.at(a.v).idx - defs.at(b.v).idx })
	return out
}

// flat lists a layered map's variables and values in one map.
func flat[V any](l layered[V]) map[symx.Var]V {
	out := make(map[symx.Var]V, l.n)
	l.all(func(v symx.Var, x V) { out[v] = x })
	return out
}

// baseOf is a layered map whose base holds m.
func baseOf[V any](m map[symx.Var]V) layered[V] {
	return layered[V]{base: m, n: len(m)}
}

// randSystem draws a conjunction of at most maxCons constraints over
// nvars variables, mostly equations so propagation binds and defines.
func randSystem(rng *rand.Rand, nvars, maxCons int) []Constraint {
	var expr func(depth int) *symx.Expr
	expr = func(depth int) *symx.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return symx.VarExpr(symx.Var(rng.Intn(nvars)))
			}
			return symx.Const(int64(rng.Intn(9) - 4))
		}
		if rng.Intn(6) == 0 {
			return symx.Unary([]symx.Op{symx.OpNot, symx.OpNeg}[rng.Intn(2)], expr(depth-1))
		}
		ops := []symx.Op{symx.OpAdd, symx.OpSub, symx.OpMul, symx.OpAnd, symx.OpOr, symx.OpXor, symx.OpDiv, symx.OpLt}
		return symx.Binary(ops[rng.Intn(len(ops))], expr(depth-1), expr(depth-1))
	}
	n := 1 + rng.Intn(maxCons)
	cs := make([]Constraint, n)
	for i := range cs {
		l := symx.VarExpr(symx.Var(rng.Intn(nvars)))
		r := expr(3)
		switch rng.Intn(8) {
		case 0:
			cs[i] = Ne(l, r)
		case 1:
			cs[i] = Le(l, r)
		case 2:
			cs[i] = Lt(expr(2), r)
		default:
			cs[i] = Eq(l, r)
		}
	}
	return cs
}

// TestResolverMatchesBuildModel resolves every variable of seeded random
// systems on demand and compares it with the former whole-model builder,
// on the state solve leaves (before the recheck can drop the model).
func TestResolverMatchesBuildModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	compared, systems, ungrounded := 0, 0, 0
	for i := 0; i < 4000; i++ {
		cs := randSystem(rng, 8, 7)
		s := &state{
			opt:     DefaultOptions(),
			pending: append([]Constraint(nil), cs...),
		}
		res := s.solve(false)
		if res.model == nil {
			continue
		}
		systems++
		want := buildModelRef(flat(s.bindings), orderedDefs(s.defs), res.model.search)
		got := res.Model()
		if len(got) != len(want) {
			t.Fatalf("system %d %s: model %v, want %v", i, String(cs), got, want)
		}
		for v := symx.Var(0); v < 8; v++ {
			w, wok := want[v]
			g, gok := got[v]
			if wok != gok || w != g {
				t.Fatalf("system %d %s: v%d = %d (%v), want %d (%v)", i, String(cs), v, g, gok, w, wok)
			}
			if e, _ := res.Eval(symx.VarExpr(v)); e != w {
				t.Fatalf("system %d %s: Eval(v%d) = %d, want %d", i, String(cs), v, e, w)
			}
			compared++
		}
		rv := resolver{m: res.model}
		s.defs.all(func(v symx.Var, _ def) {
			if r := rv.value(v); r.set && !r.grounded {
				ungrounded++
			}
		})
		for _, c := range cs {
			wh, wd := c.Holds(want)
			if gh, gd := rv.holds(c); gh != wh || gd != wd {
				t.Fatalf("system %d: %s holds %v/%v, want %v/%v", i, c, gh, gd, wh, wd)
			}
		}
	}
	if systems < 1000 || ungrounded == 0 {
		t.Fatalf("%d of 4000 systems reached a model, %d with ungrounded definitions", systems, ungrounded)
	}
	t.Logf("%d systems, %d values compared, %d ungrounded definitions", systems, compared, ungrounded)
}

// TestResolverDefinitionOrder pins the rule for definitions that do not
// ground: each reads the definitions before it and 0 for the ones after.
func TestResolverDefinitionOrder(t *testing.T) {
	v := func(i uint32) *symx.Expr { return symx.VarExpr(symx.Var(i)) }
	m := &model{
		bindings: baseOf(map[symx.Var]int64{9: 3}),
		defs: baseOf(map[symx.Var]def{
			0: {e: symx.Binary(symx.OpAdd, v(1), symx.Const(1)), idx: 0}, // reads v1 after it: 0
			1: {e: symx.Binary(symx.OpAdd, v(2), symx.Const(5)), idx: 1}, // v2 is free: 5
			3: {e: symx.Binary(symx.OpAdd, v(1), v(9)), idx: 2},          // reads v1 before it: 8
			4: {e: symx.Binary(symx.OpDiv, v(9), symx.Const(0)), idx: 3}, // no value
			5: {e: symx.Binary(symx.OpMul, v(9), symx.Const(2)), idx: 4}, // grounded: 6
		}),
	}
	want := symx.Model{9: 3, 0: 1, 1: 5, 3: 8, 5: 6}
	got := (Result{model: m}).Model()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("model %v, want %v", got, want)
	}
	ref := buildModelRef(flat(m.bindings), orderedDefs(m.defs), nil)
	if fmt.Sprint(ref) != fmt.Sprint(want) {
		t.Fatalf("reference %v, want %v", ref, want)
	}
}

// TestDefinitionCycleRejected is the regression for a system whose
// definitions closed a cycle (v5 -> v0 -> v5) that the direct occurs
// check could not see: propagation then unrolled it one level per round,
// doubling the pending constraint until the process ran out of memory.
func TestDefinitionCycleRejected(t *testing.T) {
	v := func(i uint32) *symx.Expr { return symx.VarExpr(symx.Var(i)) }
	c := symx.Const
	add := func(a, b *symx.Expr) *symx.Expr { return symx.Binary(symx.OpAdd, a, b) }
	sub := func(a, b *symx.Expr) *symx.Expr { return symx.Binary(symx.OpSub, a, b) }
	mul := func(a, b *symx.Expr) *symx.Expr { return symx.Binary(symx.OpMul, a, b) }
	and := func(a, b *symx.Expr) *symx.Expr { return symx.Binary(symx.OpAnd, a, b) }
	xor := func(a, b *symx.Expr) *symx.Expr { return symx.Binary(symx.OpXor, a, b) }
	cs := []Constraint{
		Eq(v(2), add(sub(c(3), sub(v(6), v(0))), c(1))),
		Eq(v(0), mul(sub(add(v(7), c(2)), and(v(1), c(-2))), mul(v(5), c(3)))),
		Eq(v(2), add(xor(v(3), c(-1)), and(v(7), c(1)))),
		Eq(v(4), c(0)),
		Eq(v(6), sub(xor(v(3), and(v(5), c(-2))), sub(c(1), mul(v(4), c(4))))),
		Eq(v(2), v(5)),
	}
	res := Check(cs, Options{})
	if res.Verdict != Sat {
		t.Fatalf("verdict %v (%s), want sat", res.Verdict, res.Reason)
	}
	if res.PropagationRounds > 10 {
		t.Errorf("propagation took %d rounds", res.PropagationRounds)
	}
	for _, k := range cs {
		if ok, def := k.Holds(res.Model()); !ok || !def {
			t.Errorf("model %v violates %s", res.Model(), k)
		}
	}
}

// TestSessionConcurrentForced extends and checks one session from many
// goroutines while each reads the forced bindings of its own result and
// of the parent's: the maps are only ever read once a solve returns.
func TestSessionConcurrentForced(t *testing.T) {
	forced := func(r Result, v symx.Var) int64 {
		c, _ := r.Forced(v)
		return c
	}
	v := func(i uint32) *symx.Expr { return symx.VarExpr(symx.Var(i)) }
	base := []Constraint{Eq(v(0), symx.Const(9)), Eq(v(1), symx.Binary(symx.OpAdd, v(0), symx.Const(1)))}
	parent, sess := NewSession().Extend(base, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			delta := []Constraint{Eq(v(2), symx.Binary(symx.OpAdd, v(1), symx.Const(int64(g))))}
			var res Result
			if g%2 == 0 {
				res = sess.CheckWith(delta, Options{})
			} else {
				var child *Session
				res, child = sess.Extend(delta, Options{})
				if r := child.CheckWith(nil, Options{}); forced(r, 2) != int64(10+g) {
					t.Errorf("goroutine %d: child forced %v", g, flat(r.forced))
				}
			}
			if forced(res, 0) != 9 || forced(res, 1) != 10 || forced(res, 2) != int64(10+g) {
				t.Errorf("goroutine %d: forced %v", g, flat(res.forced))
			}
			if len(res.NewlyForced) != 1 || res.NewlyForced[0] != 2 {
				t.Errorf("goroutine %d: newly forced %v", g, res.NewlyForced)
			}
			if forced(parent, 1) != 10 || parent.forced.n != 2 {
				t.Errorf("goroutine %d: parent forced %v", g, flat(parent.forced))
			}
			if x, ok := res.Eval(v(2)); !ok || x != int64(10+g) {
				t.Errorf("goroutine %d: Eval(v2) = %d, %v", g, x, ok)
			}
		}(g)
	}
	wg.Wait()
}
