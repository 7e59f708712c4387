package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"res"
	"res/internal/checkpoint"
	"res/internal/coredump"
	"res/internal/evidence"
	"res/internal/service"
	"res/internal/workload"
)

// fetchText GETs a path from a cluster node and returns the body.
func fetchText(t *testing.T, base, path string) string {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d\n%s", path, resp.StatusCode, body)
	}
	return string(body)
}

// metricValue extracts the value of an exact series line ("name 3" or
// "name{labels} 3") from Prometheus text, or fails.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in:\n%s", series, text)
	return 0
}

// TestClusterMetricsFederation is the observability acceptance test for
// the cluster layer: per-node /metrics (served through the full cluster
// handler, evidence/checkpoint counters and latency histograms
// included) stay node-local, while /v1/cluster/metrics merges the
// fleet — counters summed, histogram buckets merged, gauges tagged with
// a per-node label — from either entry point.
func TestClusterMetricsFederation(t *testing.T) {
	tc := startCluster(t, 2, (*testCluster).nodeConfig)

	// Two programs owned by different nodes, so both nodes analyze.
	ownerOf := func(bug *workload.Bug) int {
		fp := programFP(t, bug)
		owner := rank(tc.urls, fp)[0]
		for i, u := range tc.urls {
			if u == owner {
				return i
			}
		}
		t.Fatalf("owner %s not in %v", owner, tc.urls)
		return -1
	}
	candidates := []*workload.Bug{
		workload.RaceCounter(), workload.Fig1(), workload.AtomViolation(),
		workload.WriteWriteRace(), workload.MultiSiteRace(), workload.UseAfterFree(),
	}
	for k := 4; k <= 24; k++ {
		candidates = append(candidates, workload.DistanceChain(k))
	}
	// Node 1's program ships a checkpoint ring, and the test asserts that
	// its analysis is anchored. So it is picked only among programs whose
	// recorded Every: 16 ring anchors a library analysis under the nodes'
	// analysis config: a one-block run (UseAfterFree) has no
	// anchor-eligible checkpoint, and its unanchored analysis is correct.
	var bugs [2]*workload.Bug
	var dB *coredump.Dump
	var ringB *checkpoint.Ring
	for _, bug := range candidates {
		i := ownerOf(bug)
		if bugs[i] != nil {
			continue
		}
		if i == 1 {
			d, ring, _, err := bug.FindFailureCheckpointed(60, checkpoint.Config{Every: 16})
			if err != nil {
				t.Fatal(err)
			}
			a := res.NewAnalyzer(bug.Program(), res.WithMaxDepth(testAnalysis.MaxDepth),
				res.WithMaxNodes(testAnalysis.MaxNodes), res.WithCheckpoints(ring))
			r, err := a.Analyze(context.Background(), d)
			if err != nil {
				t.Fatal(err)
			}
			if r.CheckpointAnchor == nil {
				continue
			}
			dB, ringB = d, ring
		}
		bugs[i] = bug
		if bugs[0] != nil && bugs[1] != nil {
			break
		}
	}
	if bugs[0] == nil || bugs[1] == nil {
		t.Fatalf("no candidate program for each owner: %v", bugs)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Node 0's program ships WITH EVIDENCE, submitted via node 1 (the
	// non-owner), so the submission crosses the proxy.
	dA, setA, _, err := bugs[0].FindFailureRecorded(60, evidence.RecordConfig{EventEvery: 3, EventWindow: 64, BranchWindow: 64})
	if err != nil {
		t.Fatal(err)
	}
	dumpA, err := dA.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	jobA, err := service.NewClient(tc.urls[1]).Submit(ctx, service.SubmitRequest{ProgramName: bugs[0].Name,
		ProgramSource: bugs[0].Source, Dump: dumpA, Evidence: setA.Encode()})
	if err != nil {
		t.Fatal(err)
	}

	// Node 1's program ships WITH A CHECKPOINT RING, submitted via node 0.
	dumpB, err := dB.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := service.NewClient(tc.urls[0]).Submit(ctx, service.SubmitRequest{ProgramName: bugs[1].Name,
		ProgramSource: bugs[1].Source, Dump: dumpB, Checkpoints: ringB.Encode()})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{jobA.ID, jobB.ID} {
		job, err := service.NewClient(tc.urls[i^1]).PollResult(ctx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status != service.StatusDone {
			t.Fatalf("job %s = %+v, want done", id, job)
		}
	}

	// Per-node /metrics through the cluster handler: each node reports
	// exactly its own analysis, with the attachment counters and the
	// latency histograms of the work it ran.
	m0 := fetchText(t, tc.urls[0], "/metrics")
	m1 := fetchText(t, tc.urls[1], "/metrics")
	if v := metricValue(t, m0, "resd_evidence_attached_total"); v != 1 {
		t.Errorf("node0 resd_evidence_attached_total = %g, want 1", v)
	}
	if !strings.Contains(m0, `resd_evidence_sources_total{kind=`) {
		t.Error("node0 metrics missing per-kind evidence counters")
	}
	if v := metricValue(t, m1, "resd_checkpoint_attached_total"); v != 1 {
		t.Errorf("node1 resd_checkpoint_attached_total = %g, want 1", v)
	}
	if v := metricValue(t, m1, "resd_checkpoint_anchored_total"); v != 1 {
		t.Errorf("node1 resd_checkpoint_anchored_total = %g, want 1", v)
	}
	for i, m := range []string{m0, m1} {
		if v := metricValue(t, m, "resd_analysis_seconds_count"); v != 1 {
			t.Errorf("node%d resd_analysis_seconds_count = %g, want 1", i, v)
		}
		if !strings.Contains(m, "resd_cluster_proxy_seconds_bucket") {
			t.Errorf("node%d metrics missing the proxy-hop histogram", i)
		}
	}

	// Federation, from either entry point: ingest counters sum, histogram
	// buckets merge, and per-node gauges carry a node label.
	for i := range tc.urls {
		fed := fetchText(t, tc.urls[i], "/v1/cluster/metrics")
		if v := metricValue(t, fed, "resd_submitted_total"); v != 2 {
			t.Errorf("entry %d: federated resd_submitted_total = %g, want 2", i, v)
		}
		if v := metricValue(t, fed, "resd_completed_total"); v != 2 {
			t.Errorf("entry %d: federated resd_completed_total = %g, want 2", i, v)
		}
		if v := metricValue(t, fed, "resd_analysis_seconds_count"); v != 2 {
			t.Errorf("entry %d: federated resd_analysis_seconds_count = %g, want 2", i, v)
		}
		if v := metricValue(t, fed, "resd_evidence_attached_total"); v != 1 {
			t.Errorf("entry %d: federated resd_evidence_attached_total = %g, want 1", i, v)
		}
		for _, u := range tc.urls {
			if !strings.Contains(fed, `node="`+u+`"`) {
				t.Errorf("entry %d: federated gauges missing node label for %s", i, u)
			}
		}
		if n := strings.Count(fed, "resd_build_info{"); n != 2 {
			t.Errorf("entry %d: %d resd_build_info series, want one per node", i, n)
		}
	}
}
