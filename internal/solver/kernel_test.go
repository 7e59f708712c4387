package solver

import (
	"math/rand"
	"testing"

	"res/internal/symx"
)

// kernelExpr draws an expression over variables 0..7 with every symx
// operator, operands that reach zero, negative values, the extremes and
// shift counts of 64 and more.
func kernelExpr(rng *rand.Rand, depth int) *symx.Expr {
	consts := []int64{0, 1, -1, 2, 3, -7, 63, 64, 65, 127, 1 << 40, minInt64, maxInt64}
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			return symx.VarExpr(symx.Var(rng.Intn(8)))
		}
		return symx.Const(consts[rng.Intn(len(consts))])
	}
	if rng.Intn(6) == 0 {
		return symx.Unary([]symx.Op{symx.OpNot, symx.OpNeg}[rng.Intn(2)], kernelExpr(rng, depth-1))
	}
	ops := []symx.Op{
		symx.OpAdd, symx.OpSub, symx.OpMul, symx.OpDiv, symx.OpMod, symx.OpAnd, symx.OpOr, symx.OpXor,
		symx.OpShl, symx.OpShr, symx.OpEq, symx.OpNe, symx.OpLt, symx.OpLe,
	}
	return symx.Binary(ops[rng.Intn(len(ops))], kernelExpr(rng, depth-1), kernelExpr(rng, depth-1))
}

// TestKernelMatchesHolds compiles seeded random constraint sets over a
// subset of their variables and holds the kernel's verdict on each try to
// Constraint.Holds under a symx.Model that assigns only that subset, one
// constraint at a time and for the whole set. Tries draw small values,
// shift counts of 64 and more, negative values and the extremes.
func TestKernelMatchesHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	values := []int64{0, 1, -1, 2, 5, -3, 63, 64, 70, 200, -64, minInt64, maxInt64}
	var divZero, holds, fails, sets int
	for i := 0; i < 3000; i++ {
		cs := make([]Constraint, 1+rng.Intn(4))
		for j := range cs {
			cs[j] = Constraint{L: kernelExpr(rng, 3), R: kernelExpr(rng, 2), Rel: Rel(rng.Intn(4))}
		}
		// Variables 6 and 7 are never searched: they read 0.
		var vars []symx.Var
		for v := symx.Var(0); v < 6; v++ {
			if rng.Intn(3) > 0 {
				vars = append(vars, v)
			}
		}
		k := compile(cs, vars)
		ones := make([]*kernel, len(cs))
		for j, c := range cs {
			ones[j] = compile([]Constraint{c}, vars)
		}
		for try := 0; try < 20; try++ {
			m := make(symx.Model, len(vars))
			for i, v := range vars {
				x := values[rng.Intn(len(values))]
				if rng.Intn(3) == 0 {
					x = rng.Int63n(200) - 100
				}
				m[v] = x
				k.slots[i] = x
				for _, o := range ones {
					o.slots[i] = x
				}
			}
			all := true
			for j, c := range cs {
				ok, def := c.Holds(m)
				if !def {
					divZero++
				}
				want := ok && def
				all = all && want
				if got := ones[j].holds(); got != want {
					t.Fatalf("set %d: %s under %v: kernel %v, Holds %v/%v", i, c, m, got, ok, def)
				}
			}
			if got := k.holds(); got != all {
				t.Fatalf("set %d: %s under %v: kernel %v, Holds %v", i, String(cs), m, got, all)
			}
			if all {
				holds++
			} else {
				fails++
			}
			if got := k.model(vars); len(got) != len(m) {
				t.Fatalf("set %d: model %v, want %v", i, got, m)
			} else {
				for v, x := range m {
					if got[v] != x {
						t.Fatalf("set %d: model %v, want %v", i, got, m)
					}
				}
			}
		}
		sets++
	}
	if divZero == 0 || holds < 100 || fails < 100 {
		t.Fatalf("%d sets: %d tries hold, %d fail, %d evaluations divide by zero", sets, holds, fails, divZero)
	}
	t.Logf("%d sets: %d tries hold, %d fail, %d evaluations divide by zero", sets, holds, fails, divZero)
}
