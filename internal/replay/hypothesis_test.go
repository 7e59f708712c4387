package replay_test

import (
	"errors"
	"testing"

	"res/internal/core"
	"res/internal/replay"
	"res/internal/vm"
	"res/internal/workload"
)

func TestLastWriter(t *testing.T) {
	p, d, syn := synthesize(t, loopCrashSrc, vm.Config{}, 8)
	_ = d
	addr, _ := p.GlobalAddr("g")
	events, err := replay.LastWriter(p, syn, addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no writes observed")
	}
	// All writes come from the loop's storeg (pc 3 in loopCrashSrc).
	for _, e := range events {
		if e.Tid != 0 {
			t.Errorf("writer tid %d", e.Tid)
		}
		if p.Code[e.PC].Op.String() != "storeg" {
			t.Errorf("writer instruction %s", p.Code[e.PC].String())
		}
	}
}

func TestPreemptedBeforeWriteOnRace(t *testing.T) {
	// On the lost-update bug, the hypothesis "was the incrementing thread
	// preempted between reading and writing the counter" must hold in the
	// reconstruction that explains the failure.
	bug := workload.RaceCounter()
	p := bug.Program()
	d, _, err := bug.FindFailure(50)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(p, core.Options{MaxDepth: 16, MaxNodes: 4000})
	rep, err := eng.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	caddr, _ := p.GlobalAddr("c")
	preempted := false
	for _, n := range rep.Suffixes {
		syn, err := eng.Concretize(n, d)
		if err != nil {
			continue
		}
		rr, err := replay.Run(p, syn, d, replay.Config{})
		if err != nil || !rr.Matches {
			continue
		}
		for tid := 0; tid <= 1; tid++ {
			got, err := replay.PreemptedBeforeWrite(p, syn, tid, caddr)
			if err != nil {
				t.Fatal(err)
			}
			if got {
				preempted = true
			}
		}
	}
	if !preempted {
		t.Error("no faithful suffix exhibits the read-modify-write preemption")
	}
}

func TestPreemptedBeforeWriteNegative(t *testing.T) {
	// Single-threaded program: no preemption can exist.
	p, d, syn := synthesize(t, loopCrashSrc, vm.Config{}, 8)
	_ = d
	addr, _ := p.GlobalAddr("g")
	got, err := replay.PreemptedBeforeWrite(p, syn, 0, addr)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("phantom preemption in a single-threaded suffix")
	}
}

// TestHypothesesRejectDivergentSuffix: a suffix whose schedule cannot be
// followed has no answer; both queries return its divergence rather than
// an answer about some other execution.
func TestHypothesesRejectDivergentSuffix(t *testing.T) {
	p, _, syn := synthesize(t, loopCrashSrc, vm.Config{}, 8)
	addr, _ := p.GlobalAddr("g")
	bad := *syn
	bad.Suffix = syn.Suffix.Clone()
	last := len(bad.Suffix.Steps) - 1
	bad.Suffix.Steps[last].Block = p.NumBlocks() + 7
	var div *replay.Divergence
	if _, err := replay.LastWriter(p, &bad, addr); !errors.As(err, &div) || div.Step != last {
		t.Errorf("LastWriter error = %v, want a divergence at step %d", err, last)
	}
	if _, err := replay.PreemptedBeforeWrite(p, &bad, 0, addr); !errors.As(err, &div) || div.Step != last {
		t.Errorf("PreemptedBeforeWrite error = %v, want a divergence at step %d", err, last)
	}
}
