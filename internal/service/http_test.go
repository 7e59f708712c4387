package service

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"res/internal/obs"
	"res/internal/workload"
)

// TestHTTPEndToEnd drives the full API through a real HTTP server with
// the Client: register by source, submit, poll, buckets, metrics.
func TestHTTPEndToEnd(t *testing.T) {
	bug := workload.RaceCounter()
	svc := New(Config{Analysis: AnalysisConfig{MaxDepth: 14, MaxNodes: 4000}, ShardWorkers: 2})
	defer svc.Shutdown(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	dumps := failingDumps(t, bug, 2)

	// Submit with inline source: the program registers on first sight.
	job, err := c.Submit(ctx, SubmitRequest{ProgramName: bug.Name, ProgramSource: bug.Source, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.PollResult(ctx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone || len(done.Report) == 0 {
		t.Fatalf("job = %+v, want done with report", done)
	}
	if !strings.Contains(string(done.Report), `"verdict"`) {
		t.Fatalf("report does not look like a ReportJSON: %s", done.Report)
	}

	// Resubmitting the identical dump over HTTP is a cache hit.
	again, err := c.Submit(ctx, SubmitRequest{ProgramName: bug.Name, ProgramSource: bug.Source, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || string(again.Report) != string(done.Report) {
		t.Fatalf("resubmission = %+v, want cached byte-identical report", again)
	}

	// Explicit registration is idempotent and returns the same ID.
	progID, err := c.Register(ctx, bug.Name, bug.Source)
	if err != nil {
		t.Fatal(err)
	}
	if progID != job.Program {
		t.Fatalf("register returned %s, submit used %s", progID, job.Program)
	}
	if _, err := c.Submit(ctx, SubmitRequest{ProgramID: progID, Dump: dumps[1]}); err != nil {
		t.Fatal(err)
	}

	buckets, err := c.Buckets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) == 0 {
		t.Fatal("no buckets after completed analyses")
	}

	// Metrics expose the cache hit as Prometheus text.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{"resd_cache_hits_total 1", "resd_cache_misses_total 2", "resd_cache_hit_rate 0.3", "resd_shard_queue_depth{"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestHTTPErrorMapping checks the status-code contract.
func TestHTTPErrorMapping(t *testing.T) {
	svc := New(Config{Analysis: AnalysisConfig{MaxDepth: 8}})
	defer svc.Shutdown(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	ctx := context.Background()
	c := NewClient(strings.TrimPrefix(srv.URL, "http://")) // host:port form

	post := func(path, body string) int {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/dumps", `{"dump":"QUFB"}`); code != 400 {
		t.Fatalf("missing program: %d, want 400", code)
	}
	if code := post("/v1/dumps", `{"program_id":"beef","dump":"QUFB"}`); code != 404 {
		t.Fatalf("unknown program: %d, want 404", code)
	}
	if code := post("/v1/dumps", `not json`); code != 400 {
		t.Fatalf("bad json: %d, want 400", code)
	}
	if code := post("/v1/programs", `{"name":"x","source":"not assembly"}`); code != 400 {
		t.Fatalf("bad source: %d, want 400", code)
	}
	// A program_source that does not assemble is the client's fault on
	// every endpoint that registers on first sight.
	for _, pb := range [][2]string{
		{"/v1/dumps", `{"program_source":"this is not assembly","dump":"QUFB"}`},
		{"/v1/dumps/batch", `{"program_source":"this is not assembly","dumps":["QUFB"]}`},
		{"/v1/fixes", `{"program_source":"this is not assembly","patch":"QUFB","dump":"QUFB"}`},
	} {
		if code := post(pb[0], pb[1]); code != 400 {
			t.Errorf("bad source on %s: %d, want 400", pb[0], code)
		}
	}
	if _, err := c.Result(ctx, "no-such-job"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("unknown job error = %v", err)
	}

	// A registered program with garbage dump bytes is a 400.
	progID, err := c.Register(ctx, "t", `
func main:
    const r0, 0
    assert r0
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, SubmitRequest{ProgramID: progID,
		Dump: []byte("garbage")}); err == nil || !strings.Contains(err.Error(), "bad dump") {
		t.Fatalf("garbage dump error = %v", err)
	}
	// So is a dump whose memory image is not the program's size.
	if code := post("/v1/dumps", fmt.Sprintf(`{"program_id":%q,"dump":%q}`, progID,
		base64.StdEncoding.EncodeToString(hugeImageDump(t)))); code != 400 {
		t.Fatalf("dump with a foreign image size: %d, want 400", code)
	}

	// Draining maps to 503 on registration and on health.
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, "late", "func main:\n    halt\n"); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("draining register error = %v", err)
	}
	if err := c.Health(ctx); err == nil {
		t.Fatal("health reports ok while draining")
	}
}

// TestRequestBodiesGolden pins the JSON each submit request marshals to —
// what the Client sends: field names, omitted empty fields, and field
// order. Order is part of the contract: the cluster router's streaming
// head parser stops at the first payload field, so the program fields
// must come before the dump.
func TestRequestBodiesGolden(t *testing.T) {
	ov := &SubmitOverrides{MaxDepth: 9, BeamWidth: 2}
	trace := obs.TraceContext{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", ParentRef: "n1/7"}
	for _, tc := range []struct {
		name string
		req  any
		want string
	}{
		{"submit/full", SubmitRequest{ProgramID: "p", ProgramName: "n", ProgramSource: "s", Options: ov,
			Dump: []byte("D"), Evidence: []byte("E"), Checkpoints: []byte("C")},
			`{"program_id":"p","program_name":"n","program_source":"s","options":{"max_depth":9,"beam_width":2},"dump":"RA==","evidence":"RQ==","checkpoints":"Qw=="}`},
		{"submit/minimal", SubmitRequest{ProgramID: "p", Dump: []byte("D")},
			`{"program_id":"p","dump":"RA=="}`},
		{"fix/full", SubmitFixRequest{ProgramID: "p", ProgramName: "n", ProgramSource: "s", Options: ov,
			Patch: []byte("P"), Dump: []byte("D")},
			`{"program_id":"p","program_name":"n","program_source":"s","options":{"max_depth":9,"beam_width":2},"patch":"UA==","dump":"RA=="}`},
		{"fix/minimal", SubmitFixRequest{ProgramID: "p", Patch: []byte("P"), Dump: []byte("D")},
			`{"program_id":"p","patch":"UA==","dump":"RA=="}`},
		{"batch/full", BatchSubmitRequest{ProgramID: "p", ProgramName: "n", ProgramSource: "s", Options: ov,
			Dumps: [][]byte{[]byte("D"), []byte("d")}, Evidence: [][]byte{[]byte("E"), nil}, Checkpoints: [][]byte{nil, []byte("C")}},
			`{"program_id":"p","program_name":"n","program_source":"s","options":{"max_depth":9,"beam_width":2},"dumps":["RA==","ZA=="],"evidence":["RQ==",null],"checkpoints":[null,"Qw=="]}`},
		{"batch/minimal", BatchSubmitRequest{ProgramID: "p", Dumps: [][]byte{[]byte("D")}},
			`{"program_id":"p","dumps":["RA=="]}`},
		// The trace context travels in the traceparent header, never in
		// the body.
		{"submit/traced", SubmitRequest{ProgramID: "p", Dump: []byte("D"), Trace: trace},
			`{"program_id":"p","dump":"RA=="}`},
		{"fix/traced", SubmitFixRequest{ProgramID: "p", Patch: []byte("P"), Dump: []byte("D"), Trace: trace},
			`{"program_id":"p","patch":"UA==","dump":"RA=="}`},
		{"batch/traced", BatchSubmitRequest{ProgramID: "p", Dumps: [][]byte{[]byte("D")}, Trace: trace},
			`{"program_id":"p","dumps":["RA=="]}`},
		{"minimize/full", MinimizeRequest{Options: ov, Trace: trace},
			`{"options":{"max_depth":9,"beam_width":2}}`},
		{"minimize/minimal", MinimizeRequest{}, `{}`},
	} {
		got, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
