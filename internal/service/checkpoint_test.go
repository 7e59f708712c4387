package service

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"res/internal/checkpoint"
	"res/internal/workload"
)

// checkpointedSubmission produces one failing dump plus its recorded
// checkpoint ring, both in wire form.
func checkpointedSubmission(t testing.TB, bug *workload.Bug) (dump, cks []byte) {
	t.Helper()
	d, ring, _, err := bug.FindFailureCheckpointed(60, checkpoint.Config{Every: 16})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Empty() {
		t.Fatal("recorder produced no checkpoints")
	}
	dump, err = d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return dump, ring.Encode()
}

// TestCheckpointJobIDGolden pins a checkpointed submission's job ID
// across versions. The ID hashes the options description, which folds
// in the ring's fingerprint, so a change to how that fingerprint is
// taken must leave this constant alone.
func TestCheckpointJobIDGolden(t *testing.T) {
	const want = "75916d9597394593372f53b23ecaf9b1117d6feb50cda960301dac29527d06d2"
	bug := workload.LongPrefix(400)
	svc := New(Config{ShardWorkers: 1, Analysis: AnalysisConfig{MaxDepth: 12, MaxNodes: 4000}})
	defer svc.Shutdown(context.Background())
	progID, err := svc.RegisterProgram(bug.Name, bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	dump, cks := checkpointedSubmission(t, bug)
	job, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump, Checkpoints: cks})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != want {
		t.Fatalf("checkpointed job ID = %s, want %s", job.ID, want)
	}
}

// TestCheckpointCacheIdentity is the checkpoint-aware caching contract:
// the same dump with and without a checkpoint ring are distinct tuples,
// identical rings cache-hit, the anchored job's report carries the
// checkpoint_anchor, both tuples bucket to the same root cause, and the
// counters reflect the attachments.
func TestCheckpointCacheIdentity(t *testing.T) {
	bug := workload.LongPrefix(400)
	svc := New(Config{ShardWorkers: 2, Analysis: AnalysisConfig{MaxDepth: 12, MaxNodes: 4000}})
	defer svc.Shutdown(context.Background())
	progID, err := svc.RegisterProgram(bug.Name, bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	dump, cks := checkpointedSubmission(t, bug)

	plain, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	withCk, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump, Checkpoints: cks})
	if err != nil {
		t.Fatal(err)
	}
	if plain.ID == withCk.ID {
		t.Fatalf("checkpoints did not change the cache identity: both jobs are %s", plain.ID)
	}
	if !withCk.Checkpointed {
		t.Fatalf("checkpoint attachment not recorded on the job: %+v", withCk)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	plainDone, err := svc.Wait(ctx, plain.ID)
	if err != nil {
		t.Fatal(err)
	}
	ckDone, err := svc.Wait(ctx, withCk.ID)
	if err != nil {
		t.Fatal(err)
	}
	if plainDone.Status != StatusDone || ckDone.Status != StatusDone {
		t.Fatalf("jobs did not complete: %v / %v", plainDone.Status, ckDone.Status)
	}
	// Anchoring must not change which defect the dump buckets to.
	if plainDone.Bucket == "" || plainDone.Bucket != ckDone.Bucket {
		t.Fatalf("buckets differ: %q vs %q", plainDone.Bucket, ckDone.Bucket)
	}
	// The anchored job's report surfaces the anchor.
	var rep struct {
		CheckpointAnchor *struct {
			Step     uint64 `json:"step"`
			Depth    int    `json:"depth"`
			Verified bool   `json:"verified"`
		} `json:"checkpoint_anchor"`
	}
	if err := json.Unmarshal(ckDone.Report, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointAnchor == nil {
		t.Fatalf("anchored report carries no checkpoint_anchor: %s", ckDone.Report)
	}
	if rep.CheckpointAnchor.Depth <= 0 || !rep.CheckpointAnchor.Verified {
		t.Errorf("implausible anchor: %+v", rep.CheckpointAnchor)
	}

	// Identical ring again: cache hit on the checkpoint tuple.
	again, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump, Checkpoints: cks})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != withCk.ID || !again.Cached {
		t.Fatalf("identical checkpoint submission did not cache-hit: %+v", again)
	}

	// Garbage checkpoints degrade: the submission is accepted, the ring
	// is dropped, and the job lands on the plain tuple with a warning.
	degraded, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump, Checkpoints: []byte("not a ring")})
	if err != nil {
		t.Fatalf("bad checkpoint attachment rejected instead of degraded: %v", err)
	}
	if degraded.ID != plain.ID {
		t.Fatalf("degraded submission landed on tuple %s, want plain tuple %s", degraded.ID, plain.ID)
	}
	if degraded.Checkpointed || len(degraded.Warnings) == 0 {
		t.Fatalf("degraded job not marked: %+v", degraded)
	}

	m := metrics(t, svc)
	if v := m("resd_checkpoint_attached_total"); v != 2 {
		t.Errorf("resd_checkpoint_attached_total = %v, want 2", v)
	}
	if v := m("resd_checkpoint_anchored_total"); v != 1 {
		t.Errorf("resd_checkpoint_anchored_total = %v, want 1", v)
	}
	if v := m("resd_attachments_degraded_total"); v != 1 {
		t.Errorf("resd_attachments_degraded_total = %v, want 1", v)
	}
}
