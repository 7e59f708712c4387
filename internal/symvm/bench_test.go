package symvm_test

import (
	"fmt"
	"testing"

	"res/internal/core"
	"res/internal/solver"
	"res/internal/symvm"
	"res/internal/workload"
)

// BenchmarkBackExec times one backward step from a DistanceChain
// snapshot at the given search depth: the probe, the block's symbolic
// execution, and the incremental check of its constraints. Ideally the
// time and B/op stay flat as depth grows.
func BenchmarkBackExec(b *testing.B) {
	for _, depth := range []int{4, 24, 96} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
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
			tid := n.Step.Tid
			cur, err := p.BlockAt(n.Snap.Thread(tid).PC)
			if err != nil {
				b.Fatal(err)
			}
			var req symvm.Req
			for _, pid := range p.ExecPreds(cur) {
				pred := p.Block(pid)
				req = symvm.Req{P: p, Post: n.Snap, Tid: tid, StartPC: pred.Start, EndPC: pred.End, SpawnChild: -1}
				if symvm.BackExec(req, solver.Options{}).Verdict == symvm.Feasible {
					break
				}
				req.P = nil
			}
			if req.P == nil {
				b.Fatal("no feasible predecessor")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := symvm.BackExec(req, solver.Options{}); res.Verdict != symvm.Feasible {
					b.Fatalf("%v: %s", res.Verdict, res.Reason)
				}
			}
		})
	}
}
