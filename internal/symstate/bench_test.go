package symstate_test

import (
	"fmt"
	"testing"

	"res/internal/core"
	"res/internal/solver"
	"res/internal/symstate"
	"res/internal/symx"
	"res/internal/workload"
)

// sink keeps the benchmarked Fingerprint calls from being optimized away.
var sink uint64

// chainSnap returns the snapshot of the deepest node a DistanceChain
// search reaches at the given depth, the address of the chain's cnt
// global and the thread that stepped into the node.
func chainSnap(b *testing.B, depth int) (*symstate.Snapshot, uint32, int) {
	b.Helper()
	bug := workload.DistanceChain(depth + 4)
	p := bug.Program()
	d, _, err := bug.FindFailure(2)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := core.New(p, core.Options{MaxDepth: depth}).Analyze(d)
	if err != nil {
		b.Fatal(err)
	}
	n := rep.Suffixes[len(rep.Suffixes)-1]
	if n.Depth != depth {
		b.Fatalf("deepest node at depth %d, want %d", n.Depth, depth)
	}
	cnt, err := p.GlobalAddr("cnt")
	if err != nil {
		b.Fatal(err)
	}
	return n.Snap, cnt, n.Step.Tid
}

// BenchmarkCloneCheck times what one backward step asks of a snapshot at
// the given search depth: a Clone, the constraints a DistanceChain block
// adds (the pre-value of cnt plus one equals the post state's r2 and its
// cnt; the retracted read equation leaves 0 == 0), and the Check that
// decides them. Ideally the time and B/op stay flat as depth grows.
func BenchmarkCloneCheck(b *testing.B) {
	for _, depth := range []int{4, 24, 96} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			s, cnt, tid := chainSnap(b, depth)
			pre := symx.Binary(symx.OpAdd, s.Pool.FreshExpr("pre.cnt"), symx.Const(1))
			step := []solver.Constraint{
				solver.Eq(pre, s.Thread(tid).Regs[2]),
				solver.Eq(pre, s.MemAt(cnt)),
				solver.Eq(symx.Const(0), symx.Const(0)),
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := s.Clone()
				c.AddCons(step...)
				if res := c.Check(solver.Options{}); res.Verdict != solver.Sat {
					b.Fatalf("%v (%s)", res.Verdict, res.Reason)
				}
			}
		})
	}
}

// BenchmarkFingerprint times the frontier-dedup hash the search takes of
// every feasible child, on a DistanceChain snapshot at the given search
// depth. Ideally the time stays flat as depth grows.
func BenchmarkFingerprint(b *testing.B) {
	for _, depth := range []int{4, 24, 96} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			s, _, _ := chainSnap(b, depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink ^= s.Fingerprint()
			}
		})
	}
}
