package checkpoint_test

import (
	"bytes"
	"runtime"
	"testing"

	"res/internal/asm"
	"res/internal/checkpoint"
	"res/internal/coredump"
	"res/internal/mem"
	"res/internal/vm"
	"res/internal/wire"
	"res/internal/workload"
)

// record produces a failing dump plus its checkpoint ring.
func record(t *testing.T, bug *workload.Bug, cfg checkpoint.Config) (*coredump.Dump, *checkpoint.Ring) {
	t.Helper()
	d, ring, _, err := bug.FindFailureCheckpointed(16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Empty() {
		t.Fatal("recorder produced an empty ring")
	}
	return d, ring
}

func TestWireRoundTrip(t *testing.T) {
	bug := workload.LongPrefix(200)
	_, ring := record(t, bug, checkpoint.Config{Every: 16})
	b := ring.Encode()
	if len(b) == 0 {
		t.Fatal("non-empty ring encoded to nothing")
	}
	dec, err := checkpoint.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	b2 := dec.Encode()
	if !bytes.Equal(b, b2) {
		t.Fatal("decode∘encode is not a fixed point")
	}
	if ring.Fingerprint() != dec.Fingerprint() {
		t.Fatal("fingerprint not stable across a round trip")
	}
	if dec.Interval != ring.Interval || len(dec.Checkpoints) != len(ring.Checkpoints) {
		t.Fatalf("round trip changed shape: interval %d->%d, %d->%d checkpoints",
			ring.Interval, dec.Interval, len(ring.Checkpoints), len(dec.Checkpoints))
	}
}

func TestDecodeRejectsJunk(t *testing.T) {
	cases := [][]byte{
		[]byte("RESCKPT9"),
		[]byte("RESCKPT1"),
		[]byte("RESCKPT1\x00"),
		append([]byte("RESCKPT1"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
	}
	// A wait address wider than 32 bits must be rejected, not truncated
	// onto the canonical ring's value.
	ring := &checkpoint.Ring{Interval: 1, Checkpoints: []*checkpoint.Checkpoint{{
		Mem: mem.NewSparse(0), Threads: []vm.Thread{{WaitAddr: 0xdeadbeef}}}}}
	canon := ring.Encode()
	if _, err := checkpoint.Decode(canon); err != nil {
		t.Fatal(err)
	}
	var narrow, wide wire.Encoder
	narrow.Uvarint(0xdeadbeef)
	wide.Uvarint(1<<32 | 0xdeadbeef)
	cases = append(cases, bytes.Replace(canon, narrow.Bytes(), wide.Bytes(), 1))
	for i, c := range cases {
		if _, err := checkpoint.Decode(c); err == nil {
			t.Fatalf("case %d: junk decoded without error", i)
		}
	}
	if r, err := checkpoint.Decode(nil); r != nil || err != nil {
		t.Fatal("empty input must decode to a nil ring")
	}
}

// TestClaimedImageSizeAllocatesNothing: a ring's image size is what its
// sender claims, up to 2^28 words. Decoding it must not build the
// images, and Verify must reject a size the program's layout disagrees
// with before building one: each claimed image here would be 128 MiB.
func TestClaimedImageSizeAllocatesNothing(t *testing.T) {
	const claimed = 1 << 24
	ring := &checkpoint.Ring{Interval: 1}
	for step := uint64(0); step < 4; step++ {
		img := mem.NewSparse(claimed)
		img.Set(claimed-1, 7)
		ring.Checkpoints = append(ring.Checkpoints, &checkpoint.Checkpoint{
			Step: step, Mem: img, Threads: []vm.Thread{{}}, Locks: map[uint32]int{}})
		ring.Sched = append(ring.Sched, checkpoint.SchedRec{})
	}
	raw := ring.Encode()
	p := asm.MustAssemble("func main:\n    halt\n")
	d := &coredump.Dump{Steps: ring.End()}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dec, err := checkpoint.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range dec.Checkpoints {
		if ck.Mem.Size() != claimed {
			t.Fatalf("decoded image size %d, want %d", ck.Mem.Size(), claimed)
		}
		if dec.Verify(p, ck, d) {
			t.Fatalf("checkpoint at step %d verified against a %d-word layout", ck.Step, p.Layout.MemSize)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("decode and verify allocated %d bytes", grew)
	}
}

func TestVerifyAndBisect(t *testing.T) {
	for _, tc := range []struct {
		bug *workload.Bug
		cfg checkpoint.Config
	}{
		{workload.LongPrefix(300), checkpoint.Config{Every: 16}},
		{workload.RaceCounter(), checkpoint.Config{Every: 8}},
		{workload.DeadlockBug(), checkpoint.Config{Every: 4}},
	} {
		t.Run(tc.bug.Name, func(t *testing.T) {
			d, ring := record(t, tc.bug, tc.cfg)
			p := tc.bug.Program()
			cands := ring.Candidates(d.Steps)
			if len(cands) == 0 {
				t.Skip("execution too short for an anchor candidate")
			}
			for _, ck := range cands {
				if ring.Covered(ck.Step, d.Steps) && !ring.Verify(p, ck, d) {
					t.Fatalf("genuine checkpoint at step %d failed verification", ck.Step)
				}
			}
			ck, verified := ring.Bisect(p, d)
			if ck == nil {
				t.Fatal("bisect found no anchor")
			}
			if !verified {
				t.Fatal("bisect could not verify any checkpoint of a fully covered run")
			}
			if want := cands[len(cands)-1]; ck.Step != want.Step {
				t.Fatalf("bisect stopped at step %d, latest verifiable candidate is %d", ck.Step, want.Step)
			}
		})
	}
}

func TestThinningBoundsRing(t *testing.T) {
	bug := workload.LongPrefix(3000)
	d, ring := record(t, bug, checkpoint.Config{Every: 4, Cap: 8})
	if len(ring.Checkpoints) > 9 {
		t.Fatalf("ring grew to %d checkpoints past its cap", len(ring.Checkpoints))
	}
	if ring.Interval <= 4 {
		t.Fatalf("thinning did not raise the interval (still %d)", ring.Interval)
	}
	if ring.Checkpoints[0].Step != 0 {
		t.Fatal("thinning dropped the step-0 checkpoint")
	}
	latest := ring.Checkpoints[len(ring.Checkpoints)-1]
	if d.Steps-latest.Step > ring.Interval {
		t.Fatalf("newest checkpoint is %d steps before the failure, interval is %d",
			d.Steps-latest.Step, ring.Interval)
	}
	if !ring.Verify(bug.Program(), latest, d) {
		t.Fatal("newest checkpoint of a thinned ring failed verification")
	}
}

// TestNavGoto exercises timestamp navigation: landing exactly on a
// checkpoint, landing between checkpoints (checkpoint restore + replay
// remainder), and the past-end error.
func TestNavGoto(t *testing.T) {
	bug := workload.LongPrefix(300)
	d, ring := record(t, bug, checkpoint.Config{Every: 16})
	p := bug.Program()
	nav, err := checkpoint.NewNav(p, ring, d)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: re-run the same deterministic execution and capture
	// the true state at each probed step.
	probe := map[uint64]vm.State{}
	var targets []uint64
	if len(ring.Checkpoints) < 2 {
		t.Fatal("need at least two checkpoints")
	}
	exact := ring.Checkpoints[1].Step
	between := ring.Checkpoints[1].Step + ring.Interval/2
	targets = append(targets, exact, between, d.Steps-1)
	var gv *vm.VM
	var steps uint64
	cfg := bug.Configs[0]
	cfg.Hooks = vm.Hooks{OnBlockStart: func(int, int) {
		for _, want := range targets {
			if steps == want {
				st := gv.CaptureState()
				st.Mem = gv.Mem.Clone()
				probe[want] = st
			}
		}
		steps++
	}}
	gv, err = vm.New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gv.Run(); err != nil {
		t.Fatal(err)
	}

	for _, target := range targets {
		v, ck, fault, err := nav.Goto(target)
		if err != nil {
			t.Fatalf("goto %d: %v", target, err)
		}
		if fault != nil {
			t.Fatalf("goto %d: unexpected fault %v", target, fault)
		}
		if ck.Step > target {
			t.Fatalf("goto %d restored a later checkpoint (step %d)", target, ck.Step)
		}
		want, ok := probe[target]
		if !ok {
			t.Fatalf("ground-truth run never reached step %d", target)
		}
		if diff := v.Mem.Diff(want.Mem); len(diff) != 0 {
			t.Fatalf("goto %d: memory differs from ground truth at %d addresses", target, len(diff))
		}
		for _, wt := range want.Threads {
			gt := v.Thread(wt.ID)
			if gt == nil || gt.PC != wt.PC || gt.Regs != wt.Regs {
				t.Fatalf("goto %d: thread %d state differs from ground truth", target, wt.ID)
			}
		}
	}

	// The failure state itself.
	v, _, fault, err := nav.Goto(d.Steps)
	if err != nil {
		t.Fatal(err)
	}
	if fault == nil || fault.Kind != d.Fault.Kind {
		t.Fatalf("goto end: fault %v, dump has %v", fault, d.Fault)
	}
	if diff := v.Mem.Diff(d.Mem); len(diff) != 0 {
		t.Fatal("goto end: memory differs from the dump")
	}

	// Past the end is an error.
	if _, _, _, err := nav.Goto(d.Steps + 1); err == nil {
		t.Fatal("goto past end of execution did not error")
	}
}
