package res_test

import (
	"math/rand"
	"testing"

	"res"
	"res/internal/core"
	"res/internal/coredump"
	"res/internal/prog"
	"res/internal/solver"
	"res/internal/symx"
	"res/internal/workload"
)

// concretizeMatchesModel concretizes every suffix a search of d reaches
// within depth and holds its inputs, pre-memory and pre-registers to the
// values the node's whole solver model (Result.Model) gives. It returns
// the number of suffixes compared.
func concretizeMatchesModel(t *testing.T, name string, p *prog.Program, d *coredump.Dump, depth int) int {
	t.Helper()
	eng := core.New(p, core.Options{MaxDepth: depth})
	rep, err := eng.Analyze(d)
	if err != nil {
		t.Fatalf("%s: analyze: %v", name, err)
	}
	eval := func(e *symx.Expr, m symx.Model) int64 {
		v, ok := e.Eval(m)
		if !ok {
			return 0
		}
		return v
	}
	for _, n := range rep.Suffixes {
		syn, err := eng.Concretize(n, d)
		if err != nil {
			t.Fatalf("%s depth %d: concretize: %v", name, n.Depth, err)
		}
		model := n.Snap.CheckWith(solver.Options{}, nil).Model()

		var inputs []int64
		for cur := n; cur.Parent != nil; cur = cur.Parent {
			for _, iu := range cur.Step.Inputs {
				inputs = append(inputs, model[iu.Var])
			}
		}
		if len(inputs) != len(syn.Suffix.Inputs) {
			t.Fatalf("%s depth %d: %d inputs, want %d", name, n.Depth, len(syn.Suffix.Inputs), len(inputs))
		}
		for i, in := range syn.Suffix.Inputs {
			if in.Value != inputs[i] {
				t.Fatalf("%s depth %d: input %d = %d, want %d", name, n.Depth, i, in.Value, inputs[i])
			}
		}

		want := d.Mem.View()
		n.Snap.ForEachMem(func(a uint32, e *symx.Expr) {
			if want.InRange(a) {
				want.Store(a, eval(e, model))
			}
		})
		if diff := syn.PreMem.Diff(want); len(diff) > 0 {
			t.Fatalf("%s depth %d: pre-memory differs at %v", name, n.Depth, diff)
		}

		for _, tid := range n.Snap.ThreadIDs() {
			for r, e := range n.Snap.Thread(tid).Regs {
				if got, w := syn.PreRegs[tid][r], eval(e, model); got != w {
					t.Fatalf("%s depth %d: t%d r%d = %d, want %d", name, n.Depth, tid, r, got, w)
				}
			}
		}
	}
	return len(rep.Suffixes)
}

// TestConcretizeMatchesModel holds Concretize to the solver's whole model
// on a deep DistanceChain search, a LongPrefix search whose suffixes read
// inputs, and random generated programs.
func TestConcretizeMatchesModel(t *testing.T) {
	suffixes := 0
	for _, tc := range []struct {
		bug   *workload.Bug
		depth int
	}{
		{workload.DistanceChain(60), 61},
		{workload.LongPrefix(300), 24},
	} {
		d, _, err := tc.bug.FindFailure(2)
		if err != nil {
			t.Fatal(err)
		}
		suffixes += concretizeMatchesModel(t, tc.bug.Name, tc.bug.Program(), d, tc.depth)
	}
	rng := rand.New(rand.NewSource(20130502))
	for trial := 0; trial < 30; trial++ {
		src, inputs := genProgram(rng)
		p, err := res.Assemble(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		d, err := res.Run(p, res.RunConfig{Inputs: inputs, MaxSteps: 100000})
		if err != nil || d == nil {
			t.Fatalf("trial %d: run: %v, %v", trial, d, err)
		}
		suffixes += concretizeMatchesModel(t, "generated", p, d, 10)
	}
	if suffixes < 200 {
		t.Fatalf("only %d suffixes compared", suffixes)
	}
	t.Logf("%d suffixes compared", suffixes)
}
