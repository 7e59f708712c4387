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

// BenchmarkResidualSearch times checks whose residue propagation cannot
// discharge, so that they reach the search. unknown is a LongPrefix
// candidate's residue, ((v24 + -1717837) + v15) == -629815 and v15 odd:
// 100 enumerated and 4,096 random tries find no model. enum-8 is eight
// independent parity constraints, which the enumeration satisfies after
// 21,846 of its 65,536 tries. remembered checks nothing more on the
// session enum-8's constraints built, and refute is the refutation-only
// check of unknown's residue.
func BenchmarkResidualSearch(b *testing.B) {
	v := func(i uint32) *symx.Expr { return symx.VarExpr(symx.Var(i)) }
	odd := func(e *symx.Expr) Constraint { return Ne(symx.Binary(symx.OpAnd, e, symx.Const(1)), symx.Const(0)) }
	unknown := []Constraint{
		Eq(symx.Binary(symx.OpAdd, symx.Binary(symx.OpAdd, v(24), symx.Const(-1717837)), v(15)), symx.Const(-629815)),
		odd(v(15)),
	}
	var enum8 []Constraint
	for i := uint32(0); i < 8; i++ {
		enum8 = append(enum8, odd(v(i)))
	}
	sess := NewSession()
	res, built := sess.Extend(enum8, Options{})
	if res.Verdict != Sat {
		b.Fatalf("enum-8: %v (%s)", res.Verdict, res.Reason)
	}
	for _, c := range []struct {
		name  string
		want  Verdict
		check func() Result
	}{
		{"unknown", Unknown, func() Result { return sess.CheckWith(unknown, Options{}) }},
		{"enum-8", Sat, func() Result { return sess.CheckWith(enum8, Options{}) }},
		{"remembered", Sat, func() Result { return built.CheckWith(nil, Options{}) }},
		{"refute", Unknown, func() Result { return sess.RefuteWith(unknown, Options{}) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := c.check(); res.Verdict != c.want {
					b.Fatalf("%v (%s), want %v", res.Verdict, res.Reason, c.want)
				}
			}
		})
	}
}
