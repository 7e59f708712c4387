package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"res"
	"res/internal/service"
	"res/internal/store"
)

// fixBuggySrc fails deterministically: x is 5 but the check asserts 4.
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

// TestTwoNodeFixAndMinimizeRouting is the closing-the-loop acceptance
// test at cluster scope: a fix submitted to the NON-owning node routes
// to the program's owner (like dumps do), the verdict is byte-identical
// when fetched via either node, and a minimize request for the owner's
// job routes to the node that holds the job's tuple.
func TestTwoNodeFixAndMinimizeRouting(t *testing.T) {
	p := res.MustAssemble(fixBuggySrc)
	d, err := res.Run(p, res.RunConfig{MaxSteps: 10000})
	if err != nil || d == nil {
		t.Fatalf("run: %v, dump %v", err, d)
	}
	dump, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := store.ProgramFingerprint(p)
	if err != nil {
		t.Fatal(err)
	}

	tc := startCluster(t, 2, (*testCluster).nodeConfig)
	order := rank(tc.urls, fp.String())
	ownerIdx, otherIdx := -1, -1
	for i, u := range tc.urls {
		if u == order[0] {
			ownerIdx = i
		} else {
			otherIdx = i
		}
	}
	if ownerIdx < 0 || otherIdx < 0 {
		t.Fatalf("could not map owner %s into %v", order[0], tc.urls)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := service.NewClient(tc.urls[otherIdx])

	// Submit the fix to the NON-owner; the router must proxy it.
	job, err := client.SubmitFix(ctx, service.SubmitFixRequest{
		ProgramName:   "fix-buggy",
		ProgramSource: fixBuggySrc,
		Patch:         []byte(fixGoodPatch),
		Dump:          dump,
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err = client.PollResult(ctx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var vrep struct {
		Kind    string `json:"kind"`
		Verdict string `json:"verdict"`
	}
	if err := json.Unmarshal(job.Report, &vrep); err != nil {
		t.Fatal(err)
	}
	if job.Status != service.StatusDone || vrep.Kind != "fixverify" || vrep.Verdict != "fixed" {
		t.Fatalf("fix job = %+v report %s, want done fixed", job, job.Report)
	}
	if v, _ := tc.svcs[ownerIdx].MetricsSnapshot().Value("resd_fixverify_total"); v != 1 {
		t.Fatalf("owner ran %v verifications, want the verification to have run on the owner", v)
	}
	if v, _ := tc.svcs[otherIdx].MetricsSnapshot().Value("resd_fixverify_total"); v != 0 {
		t.Fatalf("non-owner ran %v verifications, want no local verification", v)
	}

	// The verdict answers byte-identically from BOTH nodes.
	for i := range tc.urls {
		got, err := service.NewClient(tc.urls[i]).Result(ctx, job.ID)
		if err != nil {
			t.Fatalf("node %d result: %v", i, err)
		}
		if got.Status != service.StatusDone || !bytes.Equal(got.Report, job.Report) {
			t.Fatalf("node %d served %+v, want the byte-identical verdict", i, got)
		}
	}

	// Resubmitting the same (tuple, patch) through either node is a cache
	// hit on the same job, byte-identical.
	again, err := service.NewClient(tc.urls[ownerIdx]).SubmitFix(ctx, service.SubmitFixRequest{
		ProgramName:   "fix-buggy",
		ProgramSource: fixBuggySrc,
		Patch:         []byte(fixGoodPatch),
		Dump:          dump,
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != job.ID || !again.Cached || !bytes.Equal(again.Report, job.Report) {
		t.Fatalf("resubmitted fix = %+v, want cached byte-identical verdict", again)
	}

	// Minimize: analyze the dump, then ask the NON-owner to minimize the
	// owner's job — the request must route to the node holding the tuple.
	aj, err := client.Submit(ctx, service.SubmitRequest{ProgramName: "fix-buggy", ProgramSource: fixBuggySrc,
		Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	if aj, err = client.PollResult(ctx, aj.ID, 10*time.Millisecond); err != nil || aj.Status != service.StatusDone {
		t.Fatalf("analysis job = %+v, err %v", aj, err)
	}
	mj, err := client.MinimizeJob(ctx, aj.ID, service.MinimizeRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if mj, err = client.PollResult(ctx, mj.ID, 10*time.Millisecond); err != nil || mj.Status != service.StatusDone {
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
		t.Fatalf("minimize report = %s, want kind minimal-repro", mj.Report)
	}
	if _, err := res.DecodeMinimalRepro(mrep.Repro); err != nil {
		t.Fatalf("repro bytes do not decode: %v", err)
	}
	if v, _ := tc.svcs[ownerIdx].MetricsSnapshot().Value("resd_minimize_total"); v != 1 {
		t.Fatalf("owner ran %v minimizations, want the minimization on the owner", v)
	}
}
