package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"res/internal/evidence"
	"res/internal/workload"
)

// recordedSubmission produces one failing dump plus recorded evidence
// for the bug, both in wire form.
func recordedSubmission(t testing.TB, bug *workload.Bug) (dump, ev []byte) {
	t.Helper()
	d, set, _, err := bug.FindFailureRecorded(60, evidence.RecordConfig{
		EventEvery: 3, EventWindow: 64, BranchWindow: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) == 0 {
		t.Fatal("recorder produced no evidence")
	}
	dump, err = d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return dump, set.Encode()
}

// TestEvidenceCacheIdentity is the evidence-aware caching contract: the
// same dump with and without evidence are distinct tuples (distinct IDs,
// distinct store entries, both analyzed), identical evidence coalesces
// or cache-hits, and different evidence is again distinct.
func TestEvidenceCacheIdentity(t *testing.T) {
	// AmbiguousDispatch's backward search branches over many dispatch
	// targets, so a sparse event log measurably prunes even through the
	// analyzer's stop-at-first-faithful-cause path.
	bug := workload.AmbiguousDispatch(8)
	cfg := Config{ShardWorkers: 2, Analysis: AnalysisConfig{MaxDepth: 14, MaxNodes: 4000}}
	svc := New(cfg)
	defer svc.Shutdown(context.Background())
	progID, err := svc.RegisterProgram(bug.Name, bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	dump, ev := recordedSubmission(t, bug)

	plain, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	withEv, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump, Evidence: ev})
	if err != nil {
		t.Fatal(err)
	}
	if plain.ID == withEv.ID {
		t.Fatalf("evidence did not change the cache identity: both jobs are %s", plain.ID)
	}
	if len(withEv.Evidence) == 0 {
		t.Fatalf("evidence kinds not recorded on the job: %+v", withEv)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	plainDone, err := svc.Wait(ctx, plain.ID)
	if err != nil {
		t.Fatal(err)
	}
	evDone, err := svc.Wait(ctx, withEv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if plainDone.Status != StatusDone || evDone.Status != StatusDone {
		t.Fatalf("jobs did not complete: %v / %v", plainDone.Status, evDone.Status)
	}
	if plainDone.Cached || evDone.Cached {
		t.Fatal("distinct tuples must both be analyzed, not served from cache")
	}
	// Both identified the same defect: same bucket.
	if plainDone.Bucket == "" || plainDone.Bucket != evDone.Bucket {
		t.Fatalf("buckets differ: %q vs %q", plainDone.Bucket, evDone.Bucket)
	}
	// The evidence-guided analysis did less search work.
	var ps, es struct {
		Stats struct {
			Attempts int `json:"attempts"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(plainDone.Report, &ps); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(evDone.Report, &es); err != nil {
		t.Fatal(err)
	}
	if es.Stats.Attempts >= ps.Stats.Attempts {
		t.Errorf("evidence did not prune through the service: %d attempts vs %d baseline",
			es.Stats.Attempts, ps.Stats.Attempts)
	}

	// Identical (dump, evidence) again: cache hit on the evidence tuple.
	again, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump, Evidence: ev})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != withEv.ID || !again.Cached {
		t.Fatalf("identical evidence submission did not cache-hit: %+v", again)
	}
	// Different evidence (a truncated event log): a third tuple.
	set, err := evidence.Decode(ev)
	if err != nil {
		t.Fatal(err)
	}
	var trimmed evidence.Set
	for _, src := range set {
		if el, ok := src.(evidence.EventLog); ok && len(el.Records) > 1 {
			trimmed = append(trimmed, evidence.EventLog{Records: el.Records[:1]})
		}
	}
	if len(trimmed) == 0 {
		t.Fatal("no event log to trim")
	}
	other, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump, Evidence: trimmed.Encode()})
	if err != nil {
		t.Fatal(err)
	}
	if other.ID == withEv.ID || other.ID == plain.ID {
		t.Fatalf("different evidence reused an existing tuple: %s", other.ID)
	}

	// Garbage evidence degrades: the submission is accepted, the evidence
	// is dropped, and the job lands on the plain tuple with a warning.
	degraded, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump, Evidence: []byte("not evidence")})
	if err != nil {
		t.Fatalf("bad evidence rejected instead of degraded: %v", err)
	}
	if degraded.ID != plain.ID {
		t.Fatalf("degraded submission landed on tuple %s, want plain tuple %s", degraded.ID, plain.ID)
	}
	if len(degraded.Evidence) != 0 || len(degraded.Warnings) == 0 {
		t.Fatalf("degraded job not marked: %+v", degraded)
	}

	m := metrics(t, svc)
	if v := m("resd_evidence_attached_total"); v != 3 {
		t.Errorf("resd_evidence_attached_total = %v, want 3", v)
	}
	if m("resd_evidence_sources_total", "kind", "event-log") == 0 {
		t.Errorf("per-kind evidence counter for event-log is 0")
	}
}

// TestEvidenceBatchCoalescing: batch submissions treat (dump, evidence)
// as the dedup unit — the same dump under different evidence must not
// coalesce, while true duplicates must.
func TestEvidenceBatchCoalescing(t *testing.T) {
	bug := workload.RaceCounter()
	svc := New(Config{ShardWorkers: 2, Analysis: AnalysisConfig{MaxDepth: 12, MaxNodes: 2000}})
	defer svc.Shutdown(context.Background())
	progID, err := svc.RegisterProgram(bug.Name, bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	dump, ev := recordedSubmission(t, bug)
	items, err := svc.SubmitBatch(BatchSubmitRequest{ProgramID: progID,
		Dumps: [][]byte{dump, dump, dump}, Evidence: [][]byte{nil, ev, ev}})
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Error != "" || items[1].Error != "" || items[2].Error != "" {
		t.Fatalf("batch errors: %+v", items)
	}
	if items[0].Job.ID == items[1].Job.ID {
		t.Fatal("evidence-carrying dump coalesced with the plain one")
	}
	if !items[2].Duplicate || items[2].Job.ID != items[1].Job.ID {
		t.Fatalf("identical (dump, evidence) pair did not coalesce: %+v", items[2])
	}
}

// TestWatchStreamsProgress covers the NDJSON progress feed end to end:
// Service.Watch bridges observer events, the HTTP endpoint streams them,
// and Client.WatchResult tails the stream to the terminal status.
func TestWatchStreamsProgress(t *testing.T) {
	gate := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer release()
	cfg := Config{
		ShardWorkers: 1,
		Analysis:     AnalysisConfig{MaxDepth: 14, MaxNodes: 4000},
		// Hold the worker until the watcher is attached, so the stream
		// deterministically observes live events.
		BeforeAnalyze: func() { <-gate },
	}
	svc := New(cfg)
	defer svc.Shutdown(context.Background())
	bug := workload.RaceCounter()
	progID, err := svc.RegisterProgram(bug.Name, bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	dumps := failingDumps(t, bug, 1)

	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	job, err := c.Submit(ctx, SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if job.Status.Terminal() {
		t.Fatalf("expected a queued job, got %v", job.Status)
	}

	type watchOut struct {
		events []ProgressEvent
		final  Job
		err    error
	}
	outc := make(chan watchOut, 1)
	go func() {
		var out watchOut
		out.final, out.err = c.WatchResult(ctx, job.ID, func(ev ProgressEvent) {
			out.events = append(out.events, ev)
		})
		outc <- out
	}()
	// Give the watcher a moment to attach, then let the analysis run.
	time.Sleep(50 * time.Millisecond)
	release()

	out := <-outc
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.final.Status != StatusDone {
		t.Fatalf("final status %v (%s)", out.final.Status, out.final.Error)
	}
	if len(out.final.Report) == 0 {
		t.Fatal("final job carries no report")
	}
	if len(out.events) == 0 {
		t.Fatal("no progress events streamed")
	}
	sawDepth := false
	for _, ev := range out.events {
		if ev.Kind == "depth" {
			sawDepth = true
		}
	}
	if !sawDepth {
		t.Errorf("no depth events in stream: %+v", out.events)
	}
	last := out.events[len(out.events)-1]
	if last.Kind != "status" || last.Status != StatusDone {
		t.Errorf("stream did not end with the terminal status: %+v", last)
	}

	// Watching a finished job yields exactly the terminal status event.
	final, err := c.WatchResult(ctx, job.ID, nil)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("watch of finished job: %+v, %v", final, err)
	}
	// Unknown jobs 404 through the same path.
	if _, err := c.WatchResult(ctx, strings.Repeat("0", 64), nil); err == nil {
		t.Fatal("watch of unknown job succeeded")
	}
}

// TestWatchServiceLevel exercises Service.Watch directly: subscribe
// before completion, receive the terminal event, and detach with cancel.
func TestWatchServiceLevel(t *testing.T) {
	gate := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer release()
	svc := New(Config{
		ShardWorkers:  1,
		Analysis:      AnalysisConfig{MaxDepth: 12, MaxNodes: 2000},
		BeforeAnalyze: func() { <-gate },
	})
	defer svc.Shutdown(context.Background())
	bug := workload.RaceCounter()
	progID, err := svc.RegisterProgram(bug.Name, bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	dumps := failingDumps(t, bug, 1)
	job, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancelWatch, err := svc.Watch(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	// A second watcher that detaches immediately must not disturb the
	// first.
	_, cancel2, err := svc.Watch(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	cancel2()
	release()

	var last ProgressEvent
	got := 0
	for ev := range ch {
		last = ev
		got++
	}
	if got == 0 {
		t.Fatal("no events delivered")
	}
	if last.Kind != "status" || !last.Status.Terminal() {
		t.Fatalf("stream did not end with a terminal status: %+v", last)
	}
	cancelWatch() // after close: must be a harmless no-op

	if _, err := svc.Wait(context.Background(), job.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Watch("nope"); err == nil {
		t.Fatal("Watch of unknown id succeeded")
	}
}

// TestEvidenceMetricsExposition: the resd_evidence_* series render in
// the Prometheus text format.
func TestEvidenceMetricsExposition(t *testing.T) {
	bug := workload.RaceCounter()
	svc := New(Config{ShardWorkers: 1, Analysis: AnalysisConfig{MaxDepth: 10, MaxNodes: 500}})
	defer svc.Shutdown(context.Background())
	progID, err := svc.RegisterProgram(bug.Name, bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	dump, ev := recordedSubmission(t, bug)
	if _, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump, Evidence: ev}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	resp, err := c.hc.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "resd_evidence_attached_total 1") {
		t.Errorf("missing attached counter:\n%s", text)
	}
	if !strings.Contains(text, `resd_evidence_sources_total{kind="event-log"}`) {
		t.Errorf("missing per-kind counter:\n%s", text)
	}
}
