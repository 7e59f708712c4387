package core_test

import (
	"fmt"
	"testing"

	"res/internal/core"
	"res/internal/workload"
)

// BenchmarkConcretize times one Concretize of the deepest node a
// DistanceChain search reaches at the given depth: the residual solve,
// the schedule and inputs, and the pre-state's memory and registers. The
// suffix walk is the node's own length; ideally nothing else grows with
// the depth.
func BenchmarkConcretize(b *testing.B) {
	for _, depth := range []int{4, 24, 96} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			bug := workload.DistanceChain(depth + 4)
			p := bug.Program()
			d, _, err := bug.FindFailure(2)
			if err != nil {
				b.Fatal(err)
			}
			eng := core.New(p, core.Options{MaxDepth: depth})
			rep, err := eng.Analyze(d)
			if err != nil {
				b.Fatal(err)
			}
			n := rep.Suffixes[len(rep.Suffixes)-1]
			if n.Depth != depth {
				b.Fatalf("deepest node at depth %d, want %d", n.Depth, depth)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Concretize(n, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
