package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTraceCtx("ingest", TraceContext{}, "node-a")
	if len(tr.ID()) != 32 || !isHex(tr.ID()) {
		t.Fatalf("trace ID %q is not 32 hex", tr.ID())
	}
	hop := tr.Root().Child("proxy")
	tc := tr.Context(hop)
	h := tc.Traceparent()
	got := ParseTraceparent(h)
	if got.TraceID != tr.ID() || got.ParentRef != hop.Ref() {
		t.Fatalf("round trip %q -> %+v, want trace %s parent %s", h, got, tr.ID(), hop.Ref())
	}
	if len(hop.Ref()) != 16 || !isHex(hop.Ref()) {
		t.Fatalf("span ref %q is not 16 hex", hop.Ref())
	}
	if hop.Ref() != hop.Ref() {
		t.Fatal("Ref not stable")
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	for _, v := range []string{
		"", "garbage", "00-abc-def-01",
		"00-ZZ" + strings.Repeat("0", 30) + "-" + strings.Repeat("0", 16) + "-01",
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 15) + "-01",
	} {
		if tc := ParseTraceparent(v); tc != (TraceContext{}) {
			t.Fatalf("ParseTraceparent(%q) = %+v, want zero", v, tc)
		}
	}
	// All-zero parent ref means "no parent", not a ref.
	tc := ParseTraceparent("00-" + strings.Repeat("a", 32) + "-0000000000000000-01")
	if tc.TraceID != strings.Repeat("a", 32) || tc.ParentRef != "" {
		t.Fatalf("zero-parent parse = %+v", tc)
	}
}

func TestNilTraceContextInert(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Fatal("nil trace has an ID")
	}
	if tc := tr.Context(tr.Root()); tc != (TraceContext{}) {
		t.Fatalf("nil trace context = %+v", tc)
	}
	var s *Span
	if s.Ref() != "" {
		t.Fatal("nil span has a ref")
	}
	if (TraceContext{}).Traceparent() != "" {
		t.Fatal("zero context renders a header")
	}
}

func TestStitchTwoNodes(t *testing.T) {
	// Node A ingests and proxies; node B runs the analysis under the
	// proxy span's ref.
	a := NewTraceCtx("ingest", TraceContext{}, "node-a")
	proxy := a.Root().Child("proxy")
	tc := a.Context(proxy)
	proxy.End()

	b := NewTraceCtx("analysis", tc, "node-b")
	b.Root().Child("search").End()

	fa, fb := a.Finish(), b.Finish()
	if fb.TraceID != fa.TraceID || fb.ParentRef != proxy.Ref() {
		t.Fatalf("child fragment identity wrong: %s/%s", fb.TraceID, fb.ParentRef)
	}

	st := Stitch([]*TraceData{fa, fb})
	if st.TraceID != fa.TraceID {
		t.Fatalf("stitched trace ID = %q, want %q", st.TraceID, fa.TraceID)
	}
	if len(st.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(st.Spans))
	}
	if got := st.Nodes(); len(got) != 2 || got[0] != "node-a" || got[1] != "node-b" {
		t.Fatalf("Nodes() = %v", got)
	}
	// The analysis root must be parented under node A's proxy span.
	anal := st.ByName("analysis")
	if len(anal) != 1 {
		t.Fatalf("analysis spans: %d", len(anal))
	}
	proxySpans := st.ByName("proxy")
	if anal[0].Parent != proxySpans[0].ID {
		t.Fatalf("analysis parent = %d, want proxy %d", anal[0].Parent, proxySpans[0].ID)
	}
	if anal[0].StartUS < proxySpans[0].StartUS {
		t.Fatal("child fragment not rebased onto parent span start")
	}
	// Summary and Chrome export must work on the stitched tree, with
	// parents preceding children.
	sum := st.Summary()
	if !strings.Contains(sum, "node=node-b") {
		t.Fatalf("summary lacks node tags:\n%s", sum)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(st.ChromeTrace(), &chrome); err != nil {
		t.Fatalf("stitched chrome trace: %v", err)
	}
	if len(chrome.TraceEvents) != 4 {
		t.Fatalf("chrome events: %d", len(chrome.TraceEvents))
	}
}

func TestStitchOrphanAndSummaryDepth(t *testing.T) {
	a := NewTraceCtx("ingest", TraceContext{}, "a")
	af := a.Finish()
	// A repair pull recorded with no request context: same job, no
	// trace linkage.
	orphan := NewTraceCtx("repair-pull", TraceContext{TraceID: af.TraceID}, "c")
	of := orphan.Finish()
	st := Stitch([]*TraceData{af, of})
	if len(st.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(st.Spans))
	}
	if st.Spans[1].Parent != st.Spans[0].ID {
		t.Fatalf("orphan parent = %d, want root %d", st.Spans[1].Parent, st.Spans[0].ID)
	}
	lines := strings.Split(strings.TrimRight(st.Summary(), "\n"), "\n")
	if !strings.HasPrefix(lines[1], "  repair-pull") {
		t.Fatalf("orphan not indented under root:\n%s", st.Summary())
	}
}

func TestStitchNilAndEmpty(t *testing.T) {
	if Stitch(nil) != nil {
		t.Fatal("Stitch(nil) should be nil")
	}
	if Stitch([]*TraceData{nil, {}}) != nil {
		t.Fatal("Stitch of empty fragments should be nil")
	}
	one := NewTraceCtx("r", TraceContext{}, "n").Finish()
	st := Stitch([]*TraceData{one})
	if len(st.Spans) != 1 || st.Spans[0].Node != "n" {
		t.Fatalf("single-fragment stitch: %+v", st.Spans)
	}
}

// TestSnapshotValue reads counters and gauges by name and label subset;
// histograms and absent series are not found.
func TestSnapshotValue(t *testing.T) {
	snap := Snapshot{
		Counter("c_total", "c", 3),
		Counter("k_total", "k", 1).With("kind", "a", "mode", "x"),
		Counter("k_total", "k", 2).With("kind", "b", "mode", "x"),
		HistogramMetric("h_seconds", "h", NewHistogram(MicroBuckets).Snapshot()),
	}
	for _, tc := range []struct {
		name string
		kv   []string
		want float64
		ok   bool
	}{
		{"c_total", nil, 3, true},
		{"k_total", nil, 1, true},
		{"k_total", []string{"kind", "b"}, 2, true},
		{"k_total", []string{"mode", "x", "kind", "b"}, 2, true},
		{"k_total", []string{"kind", "c"}, 0, false},
		{"h_seconds", nil, 0, false},
		{"absent_total", nil, 0, false},
	} {
		if got, ok := snap.Value(tc.name, tc.kv...); got != tc.want || ok != tc.ok {
			t.Errorf("Value(%s, %q) = %v, %v; want %v, %v", tc.name, tc.kv, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMergeMismatchedBuckets(t *testing.T) {
	h := &HistData{Bounds: []float64{0.1, 1, 10}, Counts: []uint64{0, 0, 0, 0}}
	o := &HistData{Bounds: []float64{0.05, 0.5, 5, 50}, Counts: []uint64{1, 2, 3, 4, 5}, Sum: 100, Count: 15}
	h.Merge(o)
	// 0.05 -> le 0.1; 0.5 -> le 1; 5 -> le 10; 50 -> +Inf; o's +Inf -> +Inf.
	want := []uint64{1, 2, 3, 9}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.Sum != 100 || h.Count != 15 {
		t.Fatalf("sum/count = %g/%d", h.Sum, h.Count)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		fr.Record(FlightEvent{Kind: "span", Msg: string(rune('a' + i))})
	}
	evs, dropped := fr.Snapshot()
	if len(evs) != 4 || dropped != 2 {
		t.Fatalf("got %d events dropped %d, want 4/2", len(evs), dropped)
	}
	if evs[0].Msg != "c" || evs[3].Msg != "f" {
		t.Fatalf("ring order wrong: %+v", evs)
	}
	var b bytes.Buffer
	fr.Dump(&b, "test")
	if !strings.Contains(b.String(), "flight recorder dump (test): 4 events, 2 evicted") {
		t.Fatalf("dump header:\n%s", b.String())
	}
	var nilFR *FlightRecorder
	nilFR.Record(FlightEvent{})
	nilFR.Eventf("x", "y")
	nilFR.Dump(&b, "nil")
	if evs, _ := nilFR.Snapshot(); evs != nil {
		t.Fatal("nil recorder returned events")
	}
}

func TestFragRingEviction(t *testing.T) {
	r := NewFragRing(2)
	td := func(n string) *TraceData { return &TraceData{Node: n, Spans: []SpanData{{Name: "x"}}} }
	r.Add("j1", td("a"))
	r.Add("j2", td("a"))
	r.Add("j1", td("b"))
	r.Add("j3", td("a")) // evicts j1 (oldest)
	if got := r.Get("j1"); got != nil {
		t.Fatalf("j1 should be evicted, got %d frags", len(got))
	}
	if got := r.Get("j2"); len(got) != 1 {
		t.Fatalf("j2 frags = %d", len(got))
	}
	var nilRing *FragRing
	nilRing.Add("x", td("a"))
	if nilRing.Get("x") != nil {
		t.Fatal("nil ring returned fragments")
	}
}

func TestLoggerTeeAndFormats(t *testing.T) {
	fr := NewFlightRecorder(8)
	var buf bytes.Buffer
	l, err := NewLogger("json", &buf, "n1", fr)
	if err != nil {
		t.Fatal(err)
	}
	l.Info("quiet", "job_id", "j1")
	l.Warn("slow analysis", "trace_id", "t1", "job_id", "j1", "program", "p")
	var rec map[string]any
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if rec["node"] != "n1" || rec["trace_id"] != "t1" || rec["program"] != "p" {
		t.Fatalf("log record missing fields: %v", rec)
	}
	evs, _ := fr.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("flight recorder got %d events, want 1 (warn only)", len(evs))
	}
	if evs[0].Kind != "log" || evs[0].TraceID != "t1" || evs[0].JobID != "j1" || evs[0].Attrs["program"] != "p" {
		t.Fatalf("tee event: %+v", evs[0])
	}
	if _, err := NewLogger("xml", &buf, "", nil); err == nil {
		t.Fatal("bad format accepted")
	}
	if l, err := NewLogger("text", &buf, "n", nil); err != nil || l == nil {
		t.Fatalf("text logger: %v", err)
	}
}

func TestRuntimeMetricsSnapshot(t *testing.T) {
	start := time.Now().Add(-2 * time.Second)
	snap := RuntimeMetrics(start)
	byName := map[string]Metric{}
	for _, m := range snap {
		byName[m.Name] = m
	}
	if g := byName["resd_goroutines"]; g.Type != "gauge" || g.Value < 1 {
		t.Fatalf("goroutines: %+v", g)
	}
	if g := byName["resd_heap_bytes"]; g.Type != "gauge" || g.Value <= 0 {
		t.Fatalf("heap bytes: %+v", g)
	}
	if c := byName["resd_gc_pause_seconds_total"]; c.Type != "counter" || c.Value < 0 {
		t.Fatalf("gc pause: %+v", c)
	}
	if g := byName["resd_uptime_seconds"]; g.Type != "gauge" || g.Value < 2 {
		t.Fatalf("uptime: %+v", g)
	}
	var b strings.Builder
	WriteProm(&b, snap)
	if !strings.Contains(b.String(), "resd_goroutines") {
		t.Fatal("prom render missing runtime gauges")
	}
}

func TestLogFormatSlogLevels(t *testing.T) {
	var buf bytes.Buffer
	l, _ := NewLogger("text", &buf, "", nil)
	l.Log(nil, slog.LevelDebug, "hidden")
	if buf.Len() != 0 {
		t.Fatalf("debug leaked: %s", buf.String())
	}
}
