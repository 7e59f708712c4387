package evidence_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"res"
	"res/internal/breadcrumb"
	"res/internal/core"
	"res/internal/evidence"
	"res/internal/workload"
)

// fullSet builds one of every source kind with non-trivial payloads.
func fullSet() evidence.Set {
	return evidence.Set{
		evidence.LBR{Mode: breadcrumb.SkipConditional},
		evidence.OutputLog{},
		evidence.EventLog{Records: []evidence.EventRec{
			{Index: 3, Tid: 0, Block: 2},
			{Index: 9, Tid: 1, Block: 5},
			{Index: 12, Tid: 0, Block: 7},
		}},
		evidence.BranchTrace{Bits: []bool{true, false, false, true, true, false, true, false, true}},
		evidence.MemProbe{Probes: []evidence.Probe{
			{Index: 4, Addr: 16, Value: -7},
			{Index: 4, Addr: 17, Value: 0},
			{Index: 11, Addr: 16, Value: 9},
		}},
	}
}

func TestWireRoundTrip(t *testing.T) {
	set := fullSet()
	enc := set.Encode()
	dec, err := evidence.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Encode(); !bytes.Equal(got, enc) {
		t.Fatalf("canonical form is not a fixed point:\nfirst:  %x\nsecond: %x", enc, got)
	}
	if dec.Fingerprint() != set.Fingerprint() {
		t.Fatal("fingerprint changed across round trip")
	}
	wantKinds := []string{"lbr", "output-log", "event-log", "branch-trace", "mem-probe"}
	gotKinds := dec.Kinds()
	if len(gotKinds) != len(wantKinds) {
		t.Fatalf("kinds = %v", gotKinds)
	}
	for i, k := range wantKinds {
		if gotKinds[i] != k {
			t.Fatalf("kinds = %v, want %v", gotKinds, wantKinds)
		}
	}
}

func TestWireEmptyAndErrors(t *testing.T) {
	if set, err := evidence.Decode(nil); err != nil || set != nil {
		t.Fatalf("Decode(nil) = %v, %v", set, err)
	}
	if evidence.Set(nil).Fingerprint() != "" {
		t.Fatal("empty set must fingerprint to the empty string")
	}
	// A zero-source set fingerprints empty too.
	if (evidence.Set{}).Fingerprint() != "" {
		t.Fatal("zero-source set must fingerprint empty")
	}
	bad := [][]byte{
		[]byte("garbage"),
		[]byte("RESEVID1"),                                 // truncated count
		append(fullSet().Encode(), 0),                      // trailing container bytes
		[]byte("RESEVID1\x01\x03zzz\x00"),                  // unknown kind
		[]byte("RESEVID1\x01\x03lbr\x01\x05"),              // bad LBR mode
		[]byte("RESEVID1\x01\x03lbr\x02\x00\x00"),          // trailing payload bytes
		[]byte("RESEVID1\x01\x0cbranch-trace\x02\x01\xff"), // nonzero pad bits
		[]byte("RESEVID1\x80\x00"),                         // overlong varint
	}
	for i, b := range bad {
		if _, err := evidence.Decode(b); err == nil {
			t.Errorf("case %d: Decode accepted %x", i, b)
		}
	}
	// Out-of-order event records are rejected both at decode and compile.
	bogus := evidence.EventLog{Records: []evidence.EventRec{{Index: 5}, {Index: 4}}}
	if _, err := evidence.Decode((evidence.Set{bogus}).Encode()); err == nil {
		t.Error("Decode accepted out-of-order event log")
	}
	bug := workload.Fig1()
	if d, _, err := bug.FindFailure(10); err == nil {
		if _, cerr := (evidence.Set{bogus}).Compile(bug.Program(), d); cerr == nil {
			t.Error("Compile accepted out-of-order event log")
		}
	}
}

// recorded finds a failing run of the bug with the recorder attached,
// probing the bug's racy global when it names one.
func recorded(t *testing.T, bug *workload.Bug) (*workload.Bug, evidence.Set, *res.Dump) {
	t.Helper()
	rcfg := evidence.RecordConfig{EventEvery: 3, EventWindow: 64, BranchWindow: 64, ProbeEvery: 4, ProbeWindow: 32}
	if addr, ok := bug.GlobalAddr(bug.RacyGlobal); ok && bug.RacyGlobal != "" {
		rcfg.ProbeAddrs = []uint32{addr}
	}
	d, set, _, err := bug.FindFailureRecorded(60, rcfg)
	if err != nil {
		t.Fatalf("%s: %v", bug.Name, err)
	}
	return bug, set, d
}

// kindOf picks one source kind out of a recorded set.
func kindOf(set evidence.Set, kind string) (evidence.Source, bool) {
	for _, src := range set {
		if src.Kind() == kind {
			return src, true
		}
	}
	return nil, false
}

// coreAttempts runs the full (no early stop) backward search with the
// given evidence and returns its statistics.
func coreAttempts(t *testing.T, bug *workload.Bug, d *res.Dump, srcs evidence.Set) core.Stats {
	t.Helper()
	p := bug.Program()
	prs, err := srcs.Compile(p, d)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(p, core.Options{MaxDepth: 12, MaxNodes: 4000, Evidence: prs, Preds: core.BuildPredIndex(p)})
	rep, err := eng.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Stats
}

// causeKey analyzes through the public session API and returns the root
// cause's bucketing key ("" when none was identified).
func causeKey(t *testing.T, bug *workload.Bug, d *res.Dump, srcs evidence.Set) string {
	t.Helper()
	a := res.NewAnalyzer(bug.Program(), res.WithMaxDepth(12), res.WithMaxNodes(4000))
	var opts []res.Option
	if len(srcs) > 0 {
		opts = append(opts, res.WithEvidence(srcs...))
	}
	r, err := a.Analyze(context.Background(), d, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cause == nil {
		return ""
	}
	return r.Cause.Key()
}

// assertPrunes is the acceptance contract for one source kind: on every
// listed bug the source strictly reduces the full search's backward-step
// attempts and the session analysis still identifies the same root
// cause.
func assertPrunes(t *testing.T, kind string, bugs []*workload.Bug) {
	t.Helper()
	for _, b := range bugs {
		bug, set, d := recorded(t, b)
		src, ok := kindOf(set, kind)
		if !ok {
			t.Fatalf("%s: recorder produced no %s evidence", bug.Name, kind)
		}
		base := coreAttempts(t, bug, d, nil)
		pruned := coreAttempts(t, bug, d, evidence.Set{src})
		if pruned.Attempts >= base.Attempts {
			t.Errorf("%s: %s did not prune: %d attempts vs %d baseline", bug.Name, kind, pruned.Attempts, base.Attempts)
		}
		baseKey := causeKey(t, bug, d, nil)
		if baseKey == "" {
			t.Fatalf("%s: baseline found no cause", bug.Name)
		}
		if got := causeKey(t, bug, d, evidence.Set{src}); got != baseKey {
			t.Errorf("%s: %s changed the root cause: %q vs %q", bug.Name, kind, got, baseKey)
		}
	}
}

func TestEventLogPrunes(t *testing.T) {
	assertPrunes(t, "event-log", []*workload.Bug{
		workload.RaceCounter(),
		workload.MultiSiteRace(),
		workload.AmbiguousDispatch(8),
	})
}

func TestBranchTracePrunes(t *testing.T) {
	assertPrunes(t, "branch-trace", []*workload.Bug{
		workload.RaceCounter(),
		workload.AmbiguousDispatch(8),
	})
}

func TestMemProbePrunes(t *testing.T) {
	assertPrunes(t, "mem-probe", []*workload.Bug{
		workload.RaceCounter(),
		workload.AtomViolation(),
	})
}

// TestLegacyHintsByteIdentical is the migration contract: the classic
// WithLBR/WithMatchOutputs options — now lowered through evidence.Source
// — produce reports byte-identical to explicitly supplying the same
// sources via WithEvidence, except for the provenance field only the
// explicit path reports; and the legacy path's JSON carries no evidence
// provenance at all, so pre-migration consumers see unchanged bytes.
func TestLegacyHintsByteIdentical(t *testing.T) {
	ctx := context.Background()
	for _, bug := range []*workload.Bug{workload.Fig1(), workload.RaceCounter(), workload.AmbiguousDispatch(8)} {
		p := bug.Program()
		d, _, err := bug.FindFailure(60)
		if err != nil {
			t.Fatalf("%s: %v", bug.Name, err)
		}
		base := []res.Option{res.WithMaxDepth(10), res.WithMaxNodes(2000)}
		legacy := res.NewAnalyzer(p, append(base, res.WithLBR(res.LBRRecordAll), res.WithMatchOutputs())...)
		explicit := res.NewAnalyzer(p, append(base,
			res.WithEvidence(evidence.LBR{Mode: breadcrumb.RecordAll}, evidence.OutputLog{}))...)

		rl, err := legacy.Analyze(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		re, err := explicit.Analyze(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		jl := normalized(t, rl)
		if bytes.Contains(jl, []byte(`"evidence"`)) {
			t.Errorf("%s: legacy options leaked evidence provenance into the report", bug.Name)
		}
		// The explicit path carries provenance; the underlying analysis
		// must be identical.
		if got := re.Evidence; len(got) != 2 || got[0] != "lbr" || got[1] != "output-log" {
			t.Errorf("%s: explicit provenance = %v", bug.Name, got)
		}
		re.Evidence = nil
		if je := normalized(t, re); !bytes.Equal(jl, je) {
			t.Errorf("%s: evidence-migrated report differs from legacy:\n--- legacy\n%s\n--- evidence\n%s", bug.Name, jl, je)
		}
	}
}

func normalized(t testing.TB, r *res.Result) []byte {
	t.Helper()
	rep := r.JSONReport()
	rep.ElapsedMS = 0
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestRecorderObservationOnly: recording evidence must not perturb the
// execution — the dump with recording is byte-identical to without.
func TestRecorderObservationOnly(t *testing.T) {
	bug := workload.RaceCounter()
	d1, _, err := bug.FindFailure(60)
	if err != nil {
		t.Fatal(err)
	}
	d2, set, _, err := bug.FindFailureRecorded(60, evidence.RecordConfig{EventEvery: 2, BranchWindow: 32})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := d1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := d2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("recording evidence changed the dump")
	}
	if len(set) == 0 {
		t.Fatal("recorder saw nothing")
	}
	// Recorded event logs honor their canonical invariants by
	// construction: re-encoding the recorded set round-trips.
	enc := set.Encode()
	dec, err := evidence.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("recorded evidence does not round-trip canonically")
	}
}

// TestEvidenceWindowsBound: the recorder's rings discard old entries, so
// arbitrarily long executions record bounded evidence.
func TestEvidenceWindowsBound(t *testing.T) {
	bug := workload.LongPrefix(200)
	d, set, _, err := bug.FindFailureRecorded(10, evidence.RecordConfig{
		EventEvery: 1, EventWindow: 16, BranchWindow: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Steps < 100 {
		t.Fatalf("expected a long run, got %d steps", d.Steps)
	}
	for _, src := range set {
		switch s := src.(type) {
		case evidence.EventLog:
			if len(s.Records) != 16 {
				t.Errorf("event window not enforced: %d records", len(s.Records))
			}
			// The surviving entries are the most recent ones.
			if last := s.Records[len(s.Records)-1].Index; last != d.Steps-1 {
				t.Errorf("last event at index %d, want %d", last, d.Steps-1)
			}
		case evidence.BranchTrace:
			if len(s.Bits) != 8 {
				t.Errorf("branch window not enforced: %d bits", len(s.Bits))
			}
		}
	}
}
