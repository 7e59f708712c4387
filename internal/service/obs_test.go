package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"res"
	"res/internal/obs"
	"res/internal/store"
	"res/internal/workload"
)

// TestTraceEndpoint drives the span-tree contract over HTTP: a freshly
// analyzed, checkpoint-anchored job serves its full trace (root
// "analysis", bisect and per-depth children), ?format=chrome exports
// trace-event JSON, and unknown jobs map to 404.
func TestTraceEndpoint(t *testing.T) {
	bug := workload.LongPrefix(400)
	svc := New(Config{ShardWorkers: 2, Analysis: AnalysisConfig{MaxDepth: 12, MaxNodes: 4000}})
	defer svc.Shutdown(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()

	dump, cks := checkpointedSubmission(t, bug)
	job, err := c.Submit(ctx, SubmitRequest{ProgramName: bug.Name, ProgramSource: bug.Source, Dump: dump,
		Checkpoints: cks})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.PollResult(ctx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("job = %+v, want done", done)
	}

	td, err := c.Trace(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Spans) == 0 || td.Spans[0].Name != "request" {
		t.Fatalf("trace root = %+v, want a \"request\" span first", td.Spans)
	}
	if td.TraceID == "" || td.TraceID != job.TraceID {
		t.Fatalf("stitched trace ID %q != job trace ID %q", td.TraceID, job.TraceID)
	}
	for _, want := range []string{"analyze", "analysis", "checkpoint-bisect", "search", "depth"} {
		if len(td.ByName(want)) == 0 {
			t.Errorf("trace has no %q span:\n%s", want, td.Summary())
		}
	}
	// The engine's span tree must hang under the request fragment's
	// analyze span, not float as a second root.
	anal := td.ByName("analysis")[0]
	if anal.Parent != td.ByName("analyze")[0].ID {
		t.Fatalf("analysis span parent = %d, want the analyze span", anal.Parent)
	}
	// The report body carries no trace — it lives on the endpoint only,
	// so stored and cached reports stay byte-identical.
	if bytes.Contains(done.Report, []byte(`"trace"`)) {
		t.Error("report JSON embeds the trace; it must stay endpoint-only")
	}

	// Chrome trace-event export.
	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + job.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("chrome export is not JSON: %v\n%s", err, body)
	}
	if len(chrome.TraceEvents) != len(td.Spans) {
		t.Fatalf("chrome export has %d events for %d spans", len(chrome.TraceEvents), len(td.Spans))
	}

	if _, err := c.Trace(ctx, "no-such-job"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("unknown job trace error = %v", err)
	}
}

// TestTraceAbsentForStoreServedJobs pins the documented 404: a job
// answered from the shared result store never ran an analysis in this
// process, so it has no span tree to serve.
func TestTraceAbsentForStoreServedJobs(t *testing.T) {
	bug := workload.RaceCounter()
	st := store.New(0)
	ctx := context.Background()

	first := New(Config{ShardWorkers: 2, Store: st, Analysis: AnalysisConfig{MaxDepth: 14, MaxNodes: 4000}})
	dump := failingDumps(t, bug, 1)[0]
	progID, err := first.RegisterProgram(bug.Name, bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	job, err := first.Submit(SubmitRequest{ProgramID: progID, Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	// The analyzing service holds the request fragment and, after it,
	// the analysis span tree.
	if frags := first.TraceFragments(job.ID); len(frags) != 2 {
		t.Fatalf("analyzing service has %d trace fragments for its own job, want the request fragment and the analysis span tree", len(frags))
	}
	if err := first.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// A second daemon sharing the store serves the result without
	// re-analysis — cached, and traceless.
	second := New(Config{ShardWorkers: 2, Store: st, Analysis: AnalysisConfig{MaxDepth: 14, MaxNodes: 4000}})
	defer second.Shutdown(context.Background())
	srv := httptest.NewServer(second.Handler())
	defer srv.Close()
	progID2, err := second.RegisterProgram(bug.Name, bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	hit, err := second.Submit(SubmitRequest{ProgramID: progID2, Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatalf("job = %+v, want a store-served cache hit", hit)
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + hit.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 || !strings.Contains(string(body), "no trace") {
		t.Fatalf("cached job trace = %d %s, want 404 \"no trace\"", resp.StatusCode, body)
	}
}

// TestEventsDroppedGapRecord pins the slow-watcher contract at the unit
// level: overflowing a subscriber increments the drop accounting, the
// next event that fits is preceded by a gap record with the exact wire
// shape {"kind":"dropped","n":N}, and the loss surfaces on /metrics as
// resd_events_dropped_total.
func TestEventsDroppedGapRecord(t *testing.T) {
	svc := New(Config{Analysis: AnalysisConfig{MaxDepth: 8}})
	defer svc.Shutdown(context.Background())

	js := &jobState{}
	sub := &progressSub{ch: make(chan ProgressEvent, 2)}
	js.subs = []*progressSub{sub}

	depthEvent := func(d int) res.Event {
		return res.Event{Kind: res.EventDepth, Depth: d}
	}
	// Two fit, the third and fourth overflow.
	for i := 1; i <= 4; i++ {
		svc.publish(js, depthEvent(i))
	}
	if got := sub.dropped.Load(); got != 2 {
		t.Fatalf("sub.dropped = %d, want 2", got)
	}
	if got := svc.eventsDropped.Load(); got != 2 {
		t.Fatalf("eventsDropped = %d, want 2", got)
	}

	// Drain the two delivered events; the next publish must mark the gap
	// before resuming.
	if ev := <-sub.ch; ev.Kind != "depth" || ev.Depth != 1 {
		t.Fatalf("first event = %+v", ev)
	}
	if ev := <-sub.ch; ev.Kind != "depth" || ev.Depth != 2 {
		t.Fatalf("second event = %+v", ev)
	}
	svc.publish(js, depthEvent(5))
	gap := <-sub.ch
	if gap.Kind != "dropped" || gap.Dropped != 2 {
		t.Fatalf("gap record = %+v, want kind=dropped n=2", gap)
	}
	wire, err := json.Marshal(gap)
	if err != nil {
		t.Fatal(err)
	}
	if string(wire) != `{"kind":"dropped","n":2}` {
		t.Fatalf("gap wire shape = %s", wire)
	}
	if ev := <-sub.ch; ev.Kind != "depth" || ev.Depth != 5 {
		t.Fatalf("post-gap event = %+v", ev)
	}

	var buf bytes.Buffer
	obs.WriteProm(&buf, svc.MetricsSnapshot())
	if !strings.Contains(buf.String(), "resd_events_dropped_total 2") {
		t.Fatalf("metrics missing resd_events_dropped_total 2:\n%s", buf.String())
	}
}

// TestMetricsHistogramsAndBuildInfo checks the new exposition: after an
// analysis, /metrics carries the latency histograms (with _bucket,
// _sum, _count series), the build-info gauge, and the pprof-labelable
// per-depth-band solver series.
func TestMetricsHistogramsAndBuildInfo(t *testing.T) {
	bug := workload.RaceCounter()
	svc := New(Config{ShardWorkers: 2, Analysis: AnalysisConfig{MaxDepth: 14, MaxNodes: 4000}})
	defer svc.Shutdown(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()

	job, err := c.Submit(ctx, SubmitRequest{ProgramName: bug.Name, ProgramSource: bug.Source,
		Dump: failingDumps(t, bug, 1)[0]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PollResult(ctx, job.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"resd_analysis_seconds_bucket{le=\"+Inf\"} 1",
		"resd_analysis_seconds_count 1",
		"resd_analysis_seconds_sum ",
		"resd_queue_wait_seconds_count 1",
		"resd_solver_depth_seconds_bucket{depth_band=\"0-4\",le=\"+Inf\"}",
		"resd_build_info{version=\"" + obs.Version + "\"",
		"resd_events_dropped_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics body:\n%s", text)
	}
}

// TestEventsChurnAccounting hammers one watcher with a publisher that
// far outruns it and checks the drop accounting balances exactly: every
// published event is either delivered, covered by a gap record, or
// still pending in the subscriber's residual counter — and the global
// resd_events_dropped_total equals the sum of the losses. NDJSON
// watchers under churn lose events, never count.
func TestEventsChurnAccounting(t *testing.T) {
	svc := New(Config{Analysis: AnalysisConfig{MaxDepth: 8}})
	defer svc.Shutdown(context.Background())

	js := &jobState{}
	sub := &progressSub{ch: make(chan ProgressEvent, 4)}
	js.subs = []*progressSub{sub}

	const total = 5000
	// Overflow before the consumer starts so the run is guaranteed to
	// contain gaps whatever the scheduler does.
	for i := 0; i < 8; i++ {
		svc.publish(js, res.Event{Kind: res.EventDepth, Depth: i})
	}

	var delivered, gapSum uint64
	take := func(ev ProgressEvent) {
		if ev.Kind == "dropped" {
			gapSum += ev.Dropped
		} else {
			delivered++
		}
	}
	done := make(chan struct{})
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		n := 0
		for {
			select {
			case ev := <-sub.ch:
				take(ev)
				if n++; n%64 == 0 {
					time.Sleep(50 * time.Microsecond) // stay slower than the publisher
				}
			case <-done:
				for { // the publisher is finished; drain what's buffered
					select {
					case ev := <-sub.ch:
						take(ev)
					default:
						return
					}
				}
			}
		}
	}()
	for i := 8; i < total; i++ {
		svc.publish(js, res.Event{Kind: res.EventDepth, Depth: i})
	}
	close(done)
	<-consumed

	residual := sub.dropped.Load()
	if delivered+gapSum+residual != total {
		t.Fatalf("accounting leak: delivered=%d + gaps=%d + residual=%d != published=%d",
			delivered, gapSum, residual, total)
	}
	if got := svc.eventsDropped.Load(); got != gapSum+residual {
		t.Fatalf("resd_events_dropped_total = %d, want gaps+residual = %d", got, gapSum+residual)
	}
	if gapSum+residual == 0 {
		t.Fatal("churn produced no drops; the test exercised nothing")
	}
}
