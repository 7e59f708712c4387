package solver

import (
	"math/rand"
	"sync"
	"testing"

	"res/internal/symx"
)

func check(t *testing.T, cs []Constraint) Result {
	t.Helper()
	return Check(cs, DefaultOptions())
}

func mustSat(t *testing.T, cs []Constraint) symx.Model {
	t.Helper()
	res := check(t, cs)
	if res.Verdict != Sat {
		t.Fatalf("verdict = %v (%s), want sat for %s", res.Verdict, res.Reason, String(cs))
	}
	for _, c := range cs {
		ok, def := c.Holds(res.Model())
		if !def || !ok {
			t.Fatalf("model %v violates %s", res.Model(), c)
		}
	}
	return res.Model()
}

func mustUnsat(t *testing.T, cs []Constraint) {
	t.Helper()
	res := check(t, cs)
	if res.Verdict != Unsat {
		t.Fatalf("verdict = %v, want unsat for %s (model %v)", res.Verdict, String(cs), res.Model())
	}
}

func TestGroundConstraints(t *testing.T) {
	mustSat(t, []Constraint{Eq(symx.Const(3), symx.Const(3))})
	mustUnsat(t, []Constraint{Eq(symx.Const(3), symx.Const(4))})
	mustSat(t, []Constraint{Lt(symx.Const(1), symx.Const(2))})
	mustUnsat(t, []Constraint{Lt(symx.Const(2), symx.Const(1))})
	mustSat(t, []Constraint{Ne(symx.Const(1), symx.Const(2))})
}

func TestSimpleBinding(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	m := mustSat(t, []Constraint{Eq(symx.VarExpr(x), symx.Const(42))})
	if m[x] != 42 {
		t.Errorf("x = %d", m[x])
	}
}

func TestConflictingBindings(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	mustUnsat(t, []Constraint{
		Eq(symx.VarExpr(x), symx.Const(1)),
		Eq(symx.VarExpr(x), symx.Const(2)),
	})
}

func TestAdditionInversion(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	// x + 5 == 12  =>  x == 7
	m := mustSat(t, []Constraint{Eq(symx.Binary(symx.OpAdd, symx.VarExpr(x), symx.Const(5)), symx.Const(12))})
	if m[x] != 7 {
		t.Errorf("x = %d, want 7", m[x])
	}
	// 5 - x == 12 => x == -7
	m = mustSat(t, []Constraint{Eq(symx.Binary(symx.OpSub, symx.Const(5), symx.VarExpr(x)), symx.Const(12))})
	if m[x] != -7 {
		t.Errorf("x = %d, want -7", m[x])
	}
}

func TestXorNegNotInversion(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	m := mustSat(t, []Constraint{Eq(symx.Binary(symx.OpXor, symx.VarExpr(x), symx.Const(0xff)), symx.Const(0x0f))})
	if m[x] != 0xf0 {
		t.Errorf("x = %#x, want 0xf0", m[x])
	}
	m = mustSat(t, []Constraint{Eq(symx.Unary(symx.OpNeg, symx.VarExpr(x)), symx.Const(9))})
	if m[x] != -9 {
		t.Errorf("x = %d, want -9", m[x])
	}
	m = mustSat(t, []Constraint{Eq(symx.Unary(symx.OpNot, symx.VarExpr(x)), symx.Const(0))})
	if m[x] != -1 {
		t.Errorf("x = %d, want -1", m[x])
	}
}

func TestMulInversionOdd(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	// 3*x == 21 => x == 7 (3 is odd: fully invertible mod 2^64)
	m := mustSat(t, []Constraint{Eq(symx.Binary(symx.OpMul, symx.VarExpr(x), symx.Const(3)), symx.Const(21))})
	if m[x] != 7 {
		t.Errorf("x = %d, want 7", m[x])
	}
}

func TestMulInversionEvenParity(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	// 4*x == 6 is unsatisfiable over 64-bit words (parity).
	mustUnsat(t, []Constraint{Eq(symx.Binary(symx.OpMul, symx.VarExpr(x), symx.Const(4)), symx.Const(6))})
	// 4*x == 8 is satisfiable (x=2 among others).
	m := mustSat(t, []Constraint{Eq(symx.Binary(symx.OpMul, symx.VarExpr(x), symx.Const(4)), symx.Const(8))})
	if got, _ := symx.Binary(symx.OpMul, symx.VarExpr(x), symx.Const(4)).Eval(m); got != 8 {
		t.Errorf("4*x = %d under model, want 8", got)
	}
}

func TestMulZeroCases(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	_ = x
	// 0*x == 0 simplifies away at construction; build with explicit Expr
	// to hit the solver path: Binary simplifies, so this is ground sat.
	mustSat(t, []Constraint{Eq(symx.Binary(symx.OpMul, symx.VarExpr(x), symx.Const(0)), symx.Const(0))})
	mustUnsat(t, []Constraint{Eq(symx.Binary(symx.OpMul, symx.VarExpr(x), symx.Const(0)), symx.Const(5))})
}

func TestComparisonDecomposition(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	// (x == 9) == 1  =>  x == 9
	cmp := symx.Binary(symx.OpEq, symx.VarExpr(x), symx.Const(9))
	m := mustSat(t, []Constraint{Eq(cmp, symx.Const(1))})
	if m[x] != 9 {
		t.Errorf("x = %d, want 9", m[x])
	}
	// (x == 9) == 0  =>  x != 9
	m = mustSat(t, []Constraint{Eq(cmp, symx.Const(0))})
	if m[x] == 9 {
		t.Error("x should differ from 9")
	}
	// (x < 5) == 1 together with x > 3 pins x == 4.
	lt := symx.Binary(symx.OpLt, symx.VarExpr(x), symx.Const(5))
	m = mustSat(t, []Constraint{
		Eq(lt, symx.Const(1)),
		Lt(symx.Const(3), symx.VarExpr(x)),
	})
	if m[x] != 4 {
		t.Errorf("x = %d, want 4", m[x])
	}
	// Comparison equated to 7: impossible.
	mustUnsat(t, []Constraint{Eq(cmp, symx.Const(7))})
}

func TestChainedInversion(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	// ((x * 3) + 4) ^ 5 == ((10*3)+4)^5  =>  x == 10
	build := func(e *symx.Expr) *symx.Expr {
		return symx.Binary(symx.OpXor,
			symx.Binary(symx.OpAdd, symx.Binary(symx.OpMul, e, symx.Const(3)), symx.Const(4)),
			symx.Const(5))
	}
	want, _ := build(symx.Const(10)).IsConst()
	m := mustSat(t, []Constraint{Eq(build(symx.VarExpr(x)), symx.Const(want))})
	if m[x] != 10 {
		t.Errorf("x = %d, want 10", m[x])
	}
}

func TestDefinitionsAndSubstitution(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	y := p.Fresh("y")
	// x == y + 1, y == 5  =>  x == 6
	m := mustSat(t, []Constraint{
		Eq(symx.VarExpr(x), symx.Binary(symx.OpAdd, symx.VarExpr(y), symx.Const(1))),
		Eq(symx.VarExpr(y), symx.Const(5)),
	})
	if m[x] != 6 || m[y] != 5 {
		t.Errorf("x=%d y=%d", m[x], m[y])
	}
}

func TestDefinitionChain(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	y := p.Fresh("y")
	z := p.Fresh("z")
	m := mustSat(t, []Constraint{
		Eq(symx.VarExpr(x), symx.Binary(symx.OpAdd, symx.VarExpr(y), symx.Const(1))),
		Eq(symx.VarExpr(y), symx.Binary(symx.OpMul, symx.VarExpr(z), symx.Const(2))),
		Eq(symx.VarExpr(z), symx.Const(10)),
	})
	if m[z] != 10 || m[y] != 20 || m[x] != 21 {
		t.Errorf("x=%d y=%d z=%d", m[x], m[y], m[z])
	}
}

func TestSelfReferenceUnsatisfiable(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	// x == x + 1: no solution; the solver may return Unsat or Unknown but
	// never Sat.
	res := check(t, []Constraint{Eq(symx.VarExpr(x), symx.Binary(symx.OpAdd, symx.VarExpr(x), symx.Const(1)))})
	if res.Verdict == Sat {
		t.Fatalf("x == x+1 declared sat with model %v", res.Model())
	}
}

func TestIntervalPropagation(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	// 3 <= x <= 3 pins x.
	m := mustSat(t, []Constraint{
		Le(symx.Const(3), symx.VarExpr(x)),
		Le(symx.VarExpr(x), symx.Const(3)),
	})
	if m[x] != 3 {
		t.Errorf("x = %d, want 3", m[x])
	}
	// Empty interval.
	mustUnsat(t, []Constraint{
		Lt(symx.Const(5), symx.VarExpr(x)),
		Lt(symx.VarExpr(x), symx.Const(5)),
	})
	// Interval conflicts with binding.
	mustUnsat(t, []Constraint{
		Eq(symx.VarExpr(x), symx.Const(10)),
		Lt(symx.VarExpr(x), symx.Const(5)),
	})
}

func TestNeWithSearch(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	m := mustSat(t, []Constraint{
		Le(symx.Const(0), symx.VarExpr(x)),
		Le(symx.VarExpr(x), symx.Const(1)),
		Ne(symx.VarExpr(x), symx.Const(0)),
	})
	if m[x] != 1 {
		t.Errorf("x = %d, want 1", m[x])
	}
	// x in [0,0] and x != 0: exhaustively unsat.
	mustUnsat(t, []Constraint{
		Le(symx.Const(0), symx.VarExpr(x)),
		Le(symx.VarExpr(x), symx.Const(0)),
		Ne(symx.VarExpr(x), symx.Const(0)),
	})
}

func TestTwoVariableSearch(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	y := p.Fresh("y")
	// x + y == 10, x == y: propagation defines x := y... then y+y==10 has
	// a mul-by-2 form; searchable.
	m := mustSat(t, []Constraint{
		Eq(symx.Binary(symx.OpAdd, symx.VarExpr(x), symx.VarExpr(y)), symx.Const(10)),
		Eq(symx.VarExpr(x), symx.VarExpr(y)),
	})
	if m[x]+m[y] != 10 || m[x] != m[y] {
		t.Errorf("x=%d y=%d", m[x], m[y])
	}
}

func TestTruthyFalsy(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	m := mustSat(t, []Constraint{Truthy(symx.Binary(symx.OpLt, symx.VarExpr(x), symx.Const(0)))})
	if m[x] >= 0 {
		t.Errorf("x = %d, want negative", m[x])
	}
	m = mustSat(t, []Constraint{Falsy(symx.Binary(symx.OpLt, symx.VarExpr(x), symx.Const(0)))})
	if m[x] < 0 {
		t.Errorf("x = %d, want non-negative", m[x])
	}
}

func TestModelDefaultsUnconstrained(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	y := p.Fresh("y")
	m := mustSat(t, []Constraint{Eq(symx.VarExpr(x), symx.Const(1))})
	if m[y] != 0 {
		t.Errorf("unconstrained y = %d, want 0 default", m[y])
	}
}

func TestUnsatReasonNonEmpty(t *testing.T) {
	res := check(t, []Constraint{Eq(symx.Const(1), symx.Const(2))})
	if res.Verdict != Unsat || res.Reason == "" {
		t.Errorf("res = %+v", res)
	}
}

// Property test: random linear chains are always solved exactly.
func TestQuickLinearChainsSolved(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		p := symx.NewPool()
		x := p.Fresh("x")
		secret := rng.Int63n(2000) - 1000
		e := symx.VarExpr(x)
		ops := []symx.Op{symx.OpAdd, symx.OpXor, symx.OpSub}
		for i := 0; i < 1+rng.Intn(6); i++ {
			op := ops[rng.Intn(len(ops))]
			c := symx.Const(rng.Int63n(100) - 50)
			e = symx.Binary(op, e, c)
		}
		want, _ := e.Subst(map[symx.Var]*symx.Expr{x: symx.Const(secret)}).IsConst()
		res := check(t, []Constraint{Eq(e, symx.Const(want))})
		if res.Verdict != Sat {
			t.Fatalf("trial %d: %v (%s)", trial, res.Verdict, res.Reason)
		}
		if res.Model()[x] != secret {
			// Some chains (xor with overlapping adds) may admit multiple
			// solutions; verify semantically instead of syntactically.
			got, _ := e.Eval(res.Model())
			if got != want {
				t.Fatalf("trial %d: model does not reproduce target", trial)
			}
		}
	}
}

// Property: solver never returns Sat for constraints that are ground-false
// after substituting its own model (soundness of the recheck).
func TestQuickSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		p := symx.NewPool()
		nv := 1 + rng.Intn(3)
		vars := make([]symx.Var, nv)
		for i := range vars {
			vars[i] = p.Fresh("v")
		}
		var cs []Constraint
		for i := 0; i < 1+rng.Intn(4); i++ {
			v := symx.VarExpr(vars[rng.Intn(nv)])
			c := symx.Const(rng.Int63n(20) - 10)
			switch rng.Intn(4) {
			case 0:
				cs = append(cs, Eq(symx.Binary(symx.OpAdd, v, symx.Const(rng.Int63n(5))), c))
			case 1:
				cs = append(cs, Ne(v, c))
			case 2:
				cs = append(cs, Lt(v, c))
			case 3:
				cs = append(cs, Le(c, v))
			}
		}
		res := check(t, cs)
		if res.Verdict == Sat {
			for _, c := range cs {
				ok, def := c.Holds(res.Model())
				if !def || !ok {
					t.Fatalf("trial %d: sat model violates %s", trial, c)
				}
			}
		}
	}
}

func TestShiftNotUnsoundlyInverted(t *testing.T) {
	// x << 3 == 8 has many solutions (high bits lost); the solver must
	// find one but never prove uniqueness it does not have.
	p := symx.NewPool()
	x := p.Fresh("x")
	m := mustSat(t, []Constraint{Eq(symx.Binary(symx.OpShl, symx.VarExpr(x), symx.Const(3)), symx.Const(8))})
	if got, _ := symx.Binary(symx.OpShl, symx.VarExpr(x), symx.Const(3)).Eval(m); got != 8 {
		t.Errorf("model does not satisfy the shift: %d", got)
	}
}

func TestDivisionConstraintSatisfiable(t *testing.T) {
	// 100 / x == 20 with x in a small interval.
	p := symx.NewPool()
	x := p.Fresh("x")
	m := mustSat(t, []Constraint{
		Eq(symx.Binary(symx.OpDiv, symx.Const(100), symx.VarExpr(x)), symx.Const(20)),
		Le(symx.Const(1), symx.VarExpr(x)),
		Le(symx.VarExpr(x), symx.Const(10)),
	})
	if m[x] != 5 {
		t.Errorf("x = %d, want 5", m[x])
	}
}

func TestDivisionByZeroNeverSat(t *testing.T) {
	// x == 0 together with 1/x == anything is undefined, never Sat.
	p := symx.NewPool()
	x := p.Fresh("x")
	res := check(t, []Constraint{
		Eq(symx.VarExpr(x), symx.Const(0)),
		Eq(symx.Binary(symx.OpDiv, symx.Const(1), symx.VarExpr(x)), symx.Const(1)),
	})
	if res.Verdict == Sat {
		t.Fatalf("division by zero declared sat: %v", res.Model())
	}
}

func TestForcedBindingsExposed(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	y := p.Fresh("y")
	res := check(t, []Constraint{
		Eq(symx.Binary(symx.OpAdd, symx.VarExpr(x), symx.Const(2)), symx.Const(7)),
		Ne(symx.VarExpr(y), symx.Const(0)), // y is satisfiable but not forced
	})
	if res.Verdict != Sat {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if c, _ := res.Forced(x); c != 5 {
		t.Errorf("x not forced to 5: %d", c)
	}
	if c, forced := res.Forced(y); forced {
		t.Errorf("y wrongly forced to %d", c)
	}
}

func TestZeroOptionsAreUsable(t *testing.T) {
	p := symx.NewPool()
	x := p.Fresh("x")
	res := Check([]Constraint{Eq(symx.Binary(symx.OpMul, symx.VarExpr(x), symx.Const(2)), symx.Const(12))}, Options{})
	if res.Verdict != Sat {
		t.Fatalf("zero options broke the search phase: %v (%s)", res.Verdict, res.Reason)
	}
}

// TestSessionMatchesCheck is the incremental-solving contract: splitting a
// constraint set into base + added and solving via a Session must agree
// with a from-scratch Check of the whole conjunction — same verdict, same
// model — at every split point, including chained extensions.
func TestSessionMatchesCheck(t *testing.T) {
	v := func(i uint32) *symx.Expr { return symx.VarExpr(symx.Var(i)) }
	systems := [][]Constraint{
		{Eq(v(0), symx.Const(5)), Eq(v(1), symx.Binary(symx.OpAdd, v(0), symx.Const(3))), Lt(v(2), symx.Const(10)), Le(symx.Const(4), v(2)), Ne(v(2), symx.Const(7))},
		{Eq(symx.Binary(symx.OpMul, v(0), symx.Const(3)), symx.Const(21)), Eq(symx.Binary(symx.OpXor, v(1), symx.Const(0xff)), symx.Const(0)), Ne(v(0), v(1))},
		{Eq(v(0), symx.Const(1)), Eq(v(0), symx.Const(2))}, // unsat in the base or the delta
		{Le(v(0), symx.Const(3)), Le(symx.Const(3), v(0)), Eq(v(1), symx.Binary(symx.OpSub, v(0), v(2))), Eq(v(2), symx.Const(1))},
	}
	for si, cs := range systems {
		want := Check(cs, Options{})
		for split := 0; split <= len(cs); split++ {
			sess := NewSession()
			var res Result
			res, sess = sess.Extend(cs[:split], Options{})
			if split < len(cs) || res.Verdict != Unsat {
				res = sess.CheckWith(cs[split:], Options{})
			}
			if res.Verdict != want.Verdict {
				t.Errorf("system %d split %d: verdict %v, want %v (%s)", si, split, res.Verdict, want.Verdict, res.Reason)
				continue
			}
			if want.Verdict == Sat {
				for _, c := range cs {
					ok, def := c.Holds(res.Model())
					if !def || !ok {
						t.Errorf("system %d split %d: session model violates %s", si, split, c)
					}
				}
				// Verdict parity is required; for these systems the models
				// must agree exactly (same propagation, same search order).
				for k, x := range want.Model() {
					if res.Model()[k] != x {
						t.Errorf("system %d split %d: model[%d] = %d, want %d", si, split, k, res.Model()[k], x)
					}
				}
			}
		}
	}
}

// TestSessionChainedExtend walks a session down a chain of extensions, the
// shape the backward search uses, verifying verdicts at each depth and
// that an unsat extension latches.
func TestSessionChainedExtend(t *testing.T) {
	v := func(i uint32) *symx.Expr { return symx.VarExpr(symx.Var(i)) }
	sess := NewSession()
	all := []Constraint{}
	for i := 0; i < 12; i++ {
		step := []Constraint{Eq(v(uint32(i+1)), symx.Binary(symx.OpAdd, v(uint32(i)), symx.Const(int64(i))))}
		all = append(all, step...)
		var res Result
		res, sess = sess.Extend(step, Options{})
		want := Check(all, Options{})
		if res.Verdict != want.Verdict {
			t.Fatalf("depth %d: verdict %v, want %v", i, res.Verdict, want.Verdict)
		}
	}
	res, sess := sess.Extend([]Constraint{Eq(v(0), symx.Const(1)), Eq(v(0), symx.Const(2))}, Options{})
	if res.Verdict != Unsat {
		t.Fatalf("contradictory extension = %v, want unsat", res.Verdict)
	}
	if res := sess.CheckWith(nil, Options{}); res.Verdict != Unsat {
		t.Fatalf("unsat session did not latch: %v", res.Verdict)
	}
}

// TestSessionConcurrentExtend extends one parent session from many
// goroutines at once — the parallel-frontier shape — under -race.
func TestSessionConcurrentExtend(t *testing.T) {
	v := func(i uint32) *symx.Expr { return symx.VarExpr(symx.Var(i)) }
	base := []Constraint{Eq(v(0), symx.Const(9)), Le(v(1), symx.Const(100))}
	_, sess := NewSession().Extend(base, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			delta := []Constraint{Eq(v(1), symx.Binary(symx.OpAdd, v(0), symx.Const(int64(g))))}
			res := sess.CheckWith(delta, Options{})
			if res.Verdict != Sat || res.Model()[symx.Var(1)] != int64(9+g) {
				t.Errorf("goroutine %d: %+v", g, res)
			}
		}(g)
	}
	wg.Wait()
}

// TestDefInheritsInterval is the regression for a soundness hole: a base
// constraint discharged into an interval (x <= 5) must survive x being
// defined away by a later equation (x == y). Without the interval
// transfer onto the definition, both the full Check and an incremental
// Session could hand out (or fail to refute) models violating the base.
func TestDefInheritsInterval(t *testing.T) {
	v := func(i uint32) *symx.Expr { return symx.VarExpr(symx.Var(i)) }
	base := []Constraint{Le(v(0), symx.Const(5))}
	added := []Constraint{Eq(v(0), v(1)), Eq(v(1), symx.Const(7))}
	all := append(append([]Constraint(nil), base...), added...)

	if got := Check(all, Options{}); got.Verdict != Unsat {
		t.Fatalf("Check = %v (%s), want unsat", got.Verdict, got.Reason)
	}
	_, sess := NewSession().Extend(base, Options{})
	if got := sess.CheckWith(added, Options{}); got.Verdict != Unsat {
		t.Fatalf("Session = %v (%s), want unsat", got.Verdict, got.Reason)
	}

	// And the satisfiable variant still solves, respecting the interval.
	okAdd := []Constraint{Eq(v(0), v(1)), Eq(v(1), symx.Const(4))}
	res := sess.CheckWith(okAdd, Options{})
	if res.Verdict != Sat || res.Model()[symx.Var(0)] != 4 {
		t.Fatalf("sat variant = %v model=%v", res.Verdict, res.Model())
	}
	for _, c := range append(append([]Constraint(nil), base...), okAdd...) {
		if ok, def := c.Holds(res.Model()); !def || !ok {
			t.Fatalf("model violates %s", c)
		}
	}
}
