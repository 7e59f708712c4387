package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"res"
	"res/internal/breadcrumb"
	"res/internal/evidence"
	"res/internal/fixverify"
	"res/internal/store"
	"res/internal/workload"
)

// fixBuggySrc fails deterministically: x is 5 but the check asserts 4.
// The check and the failure site live in separate labeled regions so
// patches to one leave the other in place.
const fixBuggySrc = `
.global x 1
func main:
    const r1, 5
    storeg r1, &x
check:
    loadg r2, &x
    const r3, 4
    cmpeq r4, r2, r3
site:
    assert r4
    halt
`

const fixGoodPatch = `replace check
    loadg r2, &x
    const r3, 5
    cmpeq r4, r2, r3
end
`

const fixBadPatch = `replace check
    loadg r2, &x
    const r3, 3
    cmpeq r4, r2, r3
end
`

// fixService builds a service holding the deterministic buggy program
// (registered by source, as a fix-verifying fleet would) plus one
// failing dump of it.
func fixService(t testing.TB, cfg Config) (*Service, string, []byte) {
	t.Helper()
	if cfg.Analysis == (AnalysisConfig{}) {
		cfg.Analysis = AnalysisConfig{MaxDepth: 14, MaxNodes: 4000}
	}
	svc := New(cfg)
	id, err := svc.RegisterSource("fix-buggy", fixBuggySrc)
	if err != nil {
		t.Fatal(err)
	}
	p := res.MustAssemble(fixBuggySrc)
	d, err := res.Run(p, res.RunConfig{MaxSteps: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("buggy program did not fail")
	}
	db, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return svc, id, db
}

// waitDone submits nothing; it just waits a job to StatusDone.
func waitDone(t testing.TB, svc *Service, job Job) Job {
	t.Helper()
	done, err := svc.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("job = %+v, want done", done)
	}
	return done
}

// TestSubmitFixVerdicts is the endpoint's acceptance property: verdicts
// are deterministic and cached by the (program, dump, options, patch)
// tuple — resubmitting the same fix is a byte-identical cache hit, and
// distinct patches get distinct jobs with distinct verdicts.
func TestSubmitFixVerdicts(t *testing.T) {
	svc, progID, dump := fixService(t, Config{ShardWorkers: 2})
	defer svc.Shutdown(context.Background())

	good, err := svc.SubmitFix(SubmitFixRequest{ProgramID: progID, Patch: []byte(fixGoodPatch), Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	if good.Mode != ModeFixVerify {
		t.Fatalf("job mode = %q, want %q", good.Mode, ModeFixVerify)
	}
	goodDone := waitDone(t, svc, good)
	var rep struct {
		Kind     string `json:"kind"`
		Verdict  string `json:"verdict"`
		CauseKey string `json:"cause_key"`
	}
	if err := json.Unmarshal(goodDone.Report, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "fixverify" || rep.Verdict != "fixed" {
		t.Fatalf("report = %s, want kind fixverify verdict fixed", goodDone.Report)
	}
	if rep.CauseKey == "" {
		t.Fatal("verdict carries no cause key")
	}
	if goodDone.Bucket != "" {
		t.Fatalf("fix job joined crash bucket %q; verdicts must stay out of dedup", goodDone.Bucket)
	}

	// Same (dump, patch): served from the store, byte-identical.
	again, err := svc.SubmitFix(SubmitFixRequest{ProgramID: progID, Patch: []byte(fixGoodPatch), Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != goodDone.ID {
		t.Fatalf("same fix tuple produced job %s, want %s", again.ID, goodDone.ID)
	}
	if !again.Cached || !bytes.Equal(again.Report, goodDone.Report) {
		t.Fatalf("resubmission = %+v, want cached byte-identical verdict", again)
	}

	// A different patch is a different tuple with its own verdict.
	bad, err := svc.SubmitFix(SubmitFixRequest{ProgramID: progID, Patch: []byte(fixBadPatch), Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	if bad.ID == goodDone.ID {
		t.Fatal("distinct patches share a job ID")
	}
	badDone := waitDone(t, svc, bad)
	if err := json.Unmarshal(badDone.Report, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "not-fixed" {
		t.Fatalf("bad patch verdict = %q, want not-fixed", rep.Verdict)
	}

	// The fix tuple is also distinct from the plain analysis of the dump.
	plain, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	if plain.ID == goodDone.ID || plain.ID == badDone.ID {
		t.Fatal("analysis job shares an ID with a fix job")
	}

	m := metrics(t, svc)
	if v := m("resd_fixverify_total"); v != 2 {
		t.Fatalf("fixverify total = %v, want 2", v)
	}
	if fixed, notFixed := m("resd_fixverify_verdicts_total", "verdict", "fixed"), m("resd_fixverify_verdicts_total", "verdict", "not-fixed"); fixed != 1 || notFixed != 1 {
		t.Fatalf("verdict counters = fixed %v not-fixed %v, want 1 and 1", fixed, notFixed)
	}
}

// TestSubmitFixErrors covers the rejection paths: unparseable patches,
// programs the service holds no source for, and a caller-supplied source
// that is not the named program's.
func TestSubmitFixErrors(t *testing.T) {
	svc, progID, dump := fixService(t, Config{})
	defer svc.Shutdown(context.Background())

	if _, err := svc.SubmitFix(SubmitFixRequest{ProgramID: progID, Patch: []byte("replace nowhere"),
		Dump: dump}); !errors.Is(err, ErrBadPatch) {
		t.Fatalf("truncated patch: %v, want ErrBadPatch", err)
	}

	// A program registered by binary only: no source to patch.
	bug := workload.RaceCounter()
	binID, err := svc.RegisterProgram(bug.Name, bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitFix(SubmitFixRequest{ProgramID: binID, Patch: []byte(fixGoodPatch),
		Dump: dump}); !errors.Is(err, ErrNoSource) {
		t.Fatalf("sourceless program: %v, want ErrNoSource", err)
	}
	// Supplying that bug's real source for the wrong program ID is caught.
	if _, err := svc.SubmitFix(SubmitFixRequest{ProgramID: progID, ProgramSource: bug.Source,
		Patch: []byte(fixGoodPatch), Dump: dump}); !errors.Is(err, ErrNoSource) {
		t.Fatalf("mismatched source: %v, want ErrNoSource", err)
	}
	// Supplying the right source for a binary-registered program works
	// (identity patch: the verdict is not-fixed, but the job completes).
	job, err := svc.SubmitFix(SubmitFixRequest{ProgramID: binID, ProgramSource: bug.Source,
		Patch: (&fixverify.Patch{}).Encode(), Dump: failingDumps(t, bug, 1)[0]})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc, job)
}

// TestMinimizeJob is the minimize endpoint's acceptance property: a
// finished analysis with a redundant attachment set minimizes to
// strictly fewer evidence sources under the byte-identical cause key,
// and the repro bytes in the report are the canonical wire form.
func TestMinimizeJob(t *testing.T) {
	st, err := store.NewDisk(0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bug := workload.RaceCounter()
	svc := New(Config{
		ShardWorkers: 2,
		Analysis:     AnalysisConfig{MaxDepth: 10, MaxNodes: 2500},
		Store:        st,
	})
	defer svc.Shutdown(context.Background())
	progID, err := svc.RegisterProgram(bug.Name, bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	d, set, _, err := bug.FindFailureRecorded(60, evidence.RecordConfig{
		EventEvery: 3, EventWindow: 64, BranchWindow: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Redundant attachment set: recorded evidence plus the classic dump
	// hints, which largely duplicate it.
	srcs := append(evidence.Set{}, set...)
	srcs = append(srcs, evidence.LBR{Mode: breadcrumb.RecordAll}, evidence.OutputLog{})
	dump, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	job, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump, Evidence: srcs.Encode()})
	if err != nil {
		t.Fatal(err)
	}
	base := waitDone(t, svc, job)
	var baseRep struct {
		Cause struct {
			Key string `json:"key"`
		} `json:"cause"`
	}
	if err := json.Unmarshal(base.Report, &baseRep); err != nil {
		t.Fatal(err)
	}
	if baseRep.Cause.Key == "" {
		t.Fatalf("analysis found no cause: %s", base.Report)
	}

	mj, err := svc.MinimizeJob(base.ID, MinimizeRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if mj.Mode != ModeMinimize {
		t.Fatalf("minimize job mode = %q", mj.Mode)
	}
	if mj.ID == base.ID {
		t.Fatal("minimize job shares the analysis job's ID")
	}
	mdone := waitDone(t, svc, mj)
	var mrep struct {
		Kind        string `json:"kind"`
		CauseKey    string `json:"cause_key"`
		OrigSources int    `json:"orig_sources"`
		MinSources  int    `json:"min_sources"`
		Fingerprint string `json:"fingerprint"`
		Repro       []byte `json:"repro"`
	}
	if err := json.Unmarshal(mdone.Report, &mrep); err != nil {
		t.Fatal(err)
	}
	if mrep.Kind != "minimal-repro" {
		t.Fatalf("report kind = %q", mrep.Kind)
	}
	if mrep.CauseKey != baseRep.Cause.Key {
		t.Fatalf("minimized cause key %q != analysis %q", mrep.CauseKey, baseRep.Cause.Key)
	}
	if mrep.OrigSources != len(srcs) || mrep.MinSources >= mrep.OrigSources {
		t.Fatalf("sources %d/%d; want a strict shrink of %d", mrep.MinSources, mrep.OrigSources, len(srcs))
	}
	m, err := res.DecodeMinimalRepro(mrep.Repro)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint() != mrep.Fingerprint {
		t.Fatal("report fingerprint does not match the repro bytes")
	}
	if mdone.Bucket != "" {
		t.Fatalf("minimize job joined crash bucket %q", mdone.Bucket)
	}

	// Minimizing the same job again is a cache hit on the same tuple.
	again, err := svc.MinimizeJob(base.ID, MinimizeRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != mdone.ID || !again.Cached || !bytes.Equal(again.Report, mdone.Report) {
		t.Fatalf("re-minimize = %+v, want cached byte-identical repro", again)
	}
	met := metrics(t, svc)
	if met("resd_minimize_total") != 1 || met("resd_minimize_runs_total") < 2 || met("resd_minimize_reductions_total") < 1 {
		t.Fatalf("minimize metrics = total %v runs %v reductions %v",
			met("resd_minimize_total"), met("resd_minimize_runs_total"), met("resd_minimize_reductions_total"))
	}
}

// TestMinimizeUnavailable covers the conflict paths: memory-only stores
// cannot recover the dump, mode jobs cannot be minimized, and unknown
// jobs stay unknown.
func TestMinimizeUnavailable(t *testing.T) {
	svc, progID, dump := fixService(t, Config{})
	defer svc.Shutdown(context.Background())

	if _, err := svc.MinimizeJob("nope", MinimizeRequest{}); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: %v, want ErrUnknownJob", err)
	}

	job, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, svc, job)
	// The default store is memory-only: no ingest archive to rebuild from.
	if _, err := svc.MinimizeJob(done.ID, MinimizeRequest{}); !errors.Is(err, ErrMinimizeUnavailable) {
		t.Fatalf("memory-only store: %v, want ErrMinimizeUnavailable", err)
	}

	fix, err := svc.SubmitFix(SubmitFixRequest{ProgramID: progID, Patch: []byte(fixGoodPatch), Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	fixDone := waitDone(t, svc, fix)
	if _, err := svc.MinimizeJob(fixDone.ID, MinimizeRequest{}); !errors.Is(err, ErrMinimizeUnavailable) {
		t.Fatalf("minimize of a fix job: %v, want ErrMinimizeUnavailable", err)
	}
}

// TestFixVerdictJournalRestart: verdicts are durable — after a daemon
// restart the verdict job replays from the journal and store, and
// resubmitting the same fix tuple is still a byte-identical cache hit.
func TestFixVerdictJournalRestart(t *testing.T) {
	dir := t.TempDir()
	newNode := func() (*Service, *Journal) {
		st, err := store.NewDisk(0, filepath.Join(dir, "store"))
		if err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(filepath.Join(dir, "journal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return New(Config{
			Analysis:     AnalysisConfig{MaxDepth: 14, MaxNodes: 4000},
			ShardWorkers: 2,
			Store:        st,
			Journal:      j,
		}), j
	}
	svc, j := newNode()
	progID, err := svc.RegisterSource("fix-buggy", fixBuggySrc)
	if err != nil {
		t.Fatal(err)
	}
	p := res.MustAssemble(fixBuggySrc)
	d, err := res.Run(p, res.RunConfig{MaxSteps: 10000})
	if err != nil || d == nil {
		t.Fatalf("run: %v, dump %v", err, d)
	}
	dump, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	job, err := svc.SubmitFix(SubmitFixRequest{ProgramID: progID, Patch: []byte(fixGoodPatch), Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, svc, job)
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	j.Close()

	svc2, j2 := newNode()
	defer func() {
		svc2.Shutdown(context.Background())
		j2.Close()
	}()
	got, ok := svc2.Job(done.ID)
	if !ok || got.Status != StatusDone || !got.Cached {
		t.Fatalf("restored verdict job = %+v, ok=%v; want store-backed done", got, ok)
	}
	if got.Mode != ModeFixVerify {
		t.Fatalf("restored job mode = %q, want %q", got.Mode, ModeFixVerify)
	}
	if !bytes.Equal(got.Report, done.Report) {
		t.Fatal("restored verdict differs from the original")
	}
	again, err := svc2.SubmitFix(SubmitFixRequest{ProgramID: progID, Patch: []byte(fixGoodPatch), Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || !bytes.Equal(again.Report, done.Report) {
		t.Fatalf("fix resubmit after restart = %+v, want cached original verdict", again)
	}
}

// TestHTTPFixLoop drives the closing-the-loop endpoints through a real
// HTTP server with the Client: POST /v1/fixes to a verdict, POST
// /v1/jobs/{id}/minimize to a minimal repro, and the error-code
// contract (400 bad patch, 404 unknown job, 409 minimize unavailable).
func TestHTTPFixLoop(t *testing.T) {
	st, err := store.NewDisk(0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{
		ShardWorkers: 2,
		Analysis:     AnalysisConfig{MaxDepth: 14, MaxNodes: 4000},
		Store:        st,
	})
	defer svc.Shutdown(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()

	p := res.MustAssemble(fixBuggySrc)
	d, err := res.Run(p, res.RunConfig{MaxSteps: 10000})
	if err != nil || d == nil {
		t.Fatalf("run: %v, dump %v", err, d)
	}
	dump, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	job, err := c.SubmitFix(ctx, SubmitFixRequest{
		ProgramName:   "fix-buggy",
		ProgramSource: fixBuggySrc,
		Patch:         []byte(fixGoodPatch),
		Dump:          dump,
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.PollResult(ctx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var vrep struct {
		Kind    string `json:"kind"`
		Verdict string `json:"verdict"`
	}
	if err := json.Unmarshal(done.Report, &vrep); err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone || vrep.Kind != "fixverify" || vrep.Verdict != "fixed" {
		t.Fatalf("fix job = %+v report %s, want done fixed", done, done.Report)
	}

	// Minimize the underlying analysis job (same tuple, no patch/mode).
	aj, err := c.Submit(ctx, SubmitRequest{ProgramName: "fix-buggy", ProgramSource: fixBuggySrc, Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	if aj, err = c.PollResult(ctx, aj.ID, 10*time.Millisecond); err != nil || aj.Status != StatusDone {
		t.Fatalf("analysis job = %+v, err %v", aj, err)
	}
	mj, err := c.MinimizeJob(ctx, aj.ID, MinimizeRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if mj, err = c.PollResult(ctx, mj.ID, 10*time.Millisecond); err != nil || mj.Status != StatusDone {
		t.Fatalf("minimize job = %+v, err %v", mj, err)
	}
	var mrep struct {
		Kind  string `json:"kind"`
		Repro []byte `json:"repro"`
	}
	if err := json.Unmarshal(mj.Report, &mrep); err != nil {
		t.Fatal(err)
	}
	if mrep.Kind != "minimal-repro" {
		t.Fatalf("minimize report kind = %q: %s", mrep.Kind, mj.Report)
	}
	if _, err := res.DecodeMinimalRepro(mrep.Repro); err != nil {
		t.Fatalf("report repro bytes do not decode: %v", err)
	}

	// Error-code contract.
	post := func(path, body string) int {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/fixes", `{"program_id":"`+aj.Program+`","dump":"QUFB"}`); code != 400 {
		t.Fatalf("missing patch: %d, want 400", code)
	}
	if code := post("/v1/jobs/no-such-job/minimize", ""); code != 404 {
		t.Fatalf("minimize unknown job: %d, want 404", code)
	}
	if code := post("/v1/jobs/"+job.ID+"/minimize", ""); code != 409 {
		t.Fatalf("minimize a fix job: %d, want 409", code)
	}
}
