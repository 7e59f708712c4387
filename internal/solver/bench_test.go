package solver

import (
	"fmt"
	"testing"

	"res/internal/symx"
)

// BenchmarkSessionCheckWith times one incremental check on a session
// extended step by step to a given depth, the way the backward search
// extends one per search node. Each step binds a counter one below its
// parent's, defines the parent's free value in terms of a new one, and
// defines a third variable over both; the checked delta is the next
// step's probe. Ideally the time and B/op stay flat as depth grows.
func BenchmarkSessionCheckWith(b *testing.B) {
	for _, depth := range []int{4, 24, 96} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			pool := symx.NewPool()
			a := pool.FreshExpr("a0")
			c := pool.FreshExpr("c0")
			_, sess := NewSession().Extend([]Constraint{Eq(a, symx.Const(1000))}, Options{})
			step := func(a, c *symx.Expr) (na, nc *symx.Expr, cs []Constraint) {
				na, nc = pool.FreshExpr("a"), pool.FreshExpr("c")
				bv, m := pool.FreshExpr("b"), pool.FreshExpr("m")
				return na, nc, []Constraint{
					Eq(symx.Binary(symx.OpAdd, na, symx.Const(1)), a),
					Eq(symx.Binary(symx.OpMul, nc, symx.Const(3)), c),
					Eq(bv, symx.Binary(symx.OpAdd, nc, na)),
					Le(na, symx.Const(1_000_000)),
					Eq(m, symx.Const(42)),
				}
			}
			for i := 0; i < depth; i++ {
				var cs []Constraint
				a, c, cs = step(a, c)
				var res Result
				if res, sess = sess.Extend(cs, Options{}); res.Verdict != Sat {
					b.Fatalf("depth %d: %v (%s)", i, res.Verdict, res.Reason)
				}
			}
			_, _, probe := step(a, c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := sess.CheckWith(probe, Options{}); res.Verdict != Sat {
					b.Fatalf("%v (%s)", res.Verdict, res.Reason)
				}
			}
		})
	}
}
