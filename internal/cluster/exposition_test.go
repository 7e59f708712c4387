package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"res"
	"res/internal/checkpoint"
	"res/internal/obs"
	"res/internal/service"
	"res/internal/workload"
)

// expositionGolden pins a node's /metrics exposition: every series'
// type, name, labels and help text, and the value of every counter and
// gauge after a fixed script of jobs.
const expositionGolden = "testdata/exposition.golden"

// runtimeSeries are the process-health series whose values depend on
// the machine and the moment, not on the jobs the script ran.
var runtimeSeries = map[string]bool{
	"resd_goroutines":             true,
	"resd_heap_bytes":             true,
	"resd_gc_pause_seconds_total": true,
	"resd_uptime_seconds":         true,
}

// expositionScript drives a one-node cluster with a disk store through
// one job of each kind the service counts, waiting for each before the
// next: a plain analysis, its resubmission (a cache hit), an evidence
// submission, a resubmission with a corrupt attachment (degraded onto
// the plain tuple, another hit), a checkpoint-ring submission for a
// second program, a fix verification, and a minimization. It returns the
// node's metric snapshot afterwards.
func expositionScript(t *testing.T) obs.Snapshot {
	t.Helper()
	p := res.MustAssemble(fixBuggySrc)
	d, err := res.Run(p, res.RunConfig{MaxSteps: 10000})
	if err != nil || d == nil {
		t.Fatalf("run: %v, dump %v", err, d)
	}
	dump, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ev := res.EncodeEvidence(res.EvidenceOutputLog(), res.EvidenceLBR(res.LBRRecordAll))
	// The fix program is too short for a checkpoint to anchor its search,
	// so the ring comes from a long run of a second program.
	long := workload.LongPrefix(400)
	ld, ring, _, err := long.FindFailureCheckpointed(60, checkpoint.Config{Every: 16})
	if err != nil {
		t.Fatal(err)
	}
	longDump, err := ld.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	tc := startCluster(t, 1, (*testCluster).nodeConfig)
	svc := tc.svcs[0]
	client := service.NewClient(tc.urls[0])
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	progID, err := client.Register(ctx, "fix-buggy", fixBuggySrc)
	if err != nil {
		t.Fatal(err)
	}
	longID, err := client.Register(ctx, long.Name, long.Source)
	if err != nil {
		t.Fatal(err)
	}
	// wait(what)(job, err) waits for a submitted job to finish done.
	wait := func(what string) func(service.Job, error) service.Job {
		return func(job service.Job, err error) service.Job {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			done, err := svc.Wait(ctx, job.ID)
			if err != nil || done.Status != service.StatusDone {
				t.Fatalf("%s: job = %+v, err %v", what, done, err)
			}
			return done
		}
	}
	plain := wait("plain")(client.Submit(ctx, service.SubmitRequest{ProgramID: progID, Dump: dump}))
	if hit, err := client.Submit(ctx, service.SubmitRequest{ProgramID: progID, Dump: dump}); err != nil || !hit.Cached || hit.ID != plain.ID {
		t.Fatalf("resubmission = %+v, err %v, want a cache hit on %s", hit, err, plain.ID)
	}
	withEv := wait("evidence")(client.Submit(ctx, service.SubmitRequest{ProgramID: progID, Dump: dump, Evidence: ev}))
	// A corrupt attachment degrades onto the plain tuple: another hit.
	if hit, err := client.Submit(ctx, service.SubmitRequest{ProgramID: progID, Dump: dump, Evidence: []byte("not evidence")}); err != nil || !hit.Cached || hit.ID != plain.ID {
		t.Fatalf("degraded resubmission = %+v, err %v, want a cache hit on %s", hit, err, plain.ID)
	}
	wait("checkpoints")(client.Submit(ctx, service.SubmitRequest{ProgramID: longID, Dump: longDump, Checkpoints: ring.Encode()}))
	wait("fix")(client.SubmitFix(ctx, service.SubmitFixRequest{ProgramID: progID, Dump: dump, Patch: []byte(fixGoodPatch)}))
	wait("minimize")(client.MinimizeJob(ctx, withEv.ID, service.MinimizeRequest{}))
	return tc.nodes[0].nodeSnapshot().Metrics
}

// renderExposition writes one line per series: type, name with labels,
// value, and help text, tab-separated. Histograms and the runtime
// series carry "-" for a value (timings), and the Go toolchain label
// reads "*".
func renderExposition(snap obs.Snapshot) string {
	var b strings.Builder
	for _, m := range snap {
		labels := make([]string, len(m.Labels))
		for i, l := range m.Labels {
			v := l.V
			if l.K == "go_version" {
				v = "*"
			}
			labels[i] = fmt.Sprintf("%s=%q", l.K, v)
		}
		series := m.Name
		if len(labels) > 0 {
			series += "{" + strings.Join(labels, ",") + "}"
		}
		value := "-"
		if m.Type != "histogram" && !runtimeSeries[m.Name] {
			value = strconv.FormatFloat(m.Value, 'g', -1, 64)
		}
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", m.Type, series, value, m.Help)
	}
	return b.String()
}

// TestExpositionGolden pins the node exposition after the script: no
// series may be renamed, added or removed, no help text, type or label
// may change, and every counter and gauge must read what it read when
// the golden file was written.
func TestExpositionGolden(t *testing.T) {
	got := renderExposition(expositionScript(t))
	want, err := os.ReadFile(filepath.FromSlash(expositionGolden))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
	t.Fatalf("exposition differs from %s; full exposition:\n%s", expositionGolden, got)
}
