package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"res/internal/fault"
	"res/internal/service"
	"res/internal/store"
	"res/internal/workload"
)

// TestClusterChaosAllSeams is the PR's chaos acceptance test: a 3-node
// cluster with seeded faults armed on all four seams — disk errors and
// bit-flips in the store, connection resets and cut bodies on the
// intra-cluster transport (the flapping-peer source), corrupt journal
// appends, and solver stalls — still lands every submitted dump in the
// same crash bucket (cause key) a fault-free run produces. Transient
// errors are allowed (clients retry; submission is content-keyed and
// idempotent); hangs, panics, and lost or misbucketed results are not.
func TestClusterChaosAllSeams(t *testing.T) {
	bug := workload.RaceCounter()
	dumps := failingDumps(t, bug, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Fault-free reference: each dump's cause key.
	refSvc := service.New(service.Config{Analysis: testAnalysis, ShardWorkers: 2})
	progID, err := refSvc.RegisterSource(bug.Name, bug.Source)
	if err != nil {
		t.Fatal(err)
	}
	refBucket := make([]string, len(dumps))
	for i, d := range dumps {
		job, err := refSvc.Submit(service.SubmitRequest{ProgramID: progID, Dump: d})
		if err != nil {
			t.Fatal(err)
		}
		if job, err = refSvc.Wait(ctx, job.ID); err != nil || job.Status != service.StatusDone {
			t.Fatalf("reference job %d = %+v, err = %v", i, job, err)
		}
		refBucket[i] = job.Bucket
	}
	refSvc.Shutdown(context.Background())

	// One injector per node, seeded deterministically: every seam armed.
	injectors := make([]*fault.Injector, 3)
	tc := startCluster(t, 3, func(tc *testCluster, i int) service.Config {
		in := fault.New(uint64(1000+i),
			fault.Rule{Seam: fault.SeamStore, Kind: fault.KindReadError, P: 0.05},
			fault.Rule{Seam: fault.SeamStore, Kind: fault.KindPartialWrite, P: 0.05},
			fault.Rule{Seam: fault.SeamStore, Kind: fault.KindBitFlip, P: 0.02},
			fault.Rule{Seam: fault.SeamTransport, Kind: fault.KindReset, P: 0.05},
			fault.Rule{Seam: fault.SeamTransport, Kind: fault.KindCutBody, P: 0.03},
			fault.Rule{Seam: fault.SeamDecode, Kind: fault.KindJournalCorrupt, P: 0.02},
			fault.Rule{Seam: fault.SeamSolver, Kind: fault.KindStall, P: 0.5, Delay: 20 * time.Millisecond},
		)
		injectors[i] = in
		cfg := tc.nodeConfig(i)
		cfg.Faults = in
		cfg.Store.SetFaults(in)
		tc.journals[i].SetFaults(in)
		tc.clusterCfg = func(j int, ncfg Config) Config {
			ncfg.Faults = injectors[j]
			return ncfg
		}
		return cfg
	})

	// Submit each dump through a different entry node, retrying through
	// injected transport failures (idempotent: same content, same job).
	jobIDs := make([]string, len(dumps))
	for i, d := range dumps {
		client := service.NewClient(tc.urls[i%len(tc.urls)])
		for {
			job, err := client.Submit(ctx, service.SubmitRequest{ProgramName: bug.Name,
				ProgramSource: bug.Source, Dump: d})
			if err == nil {
				jobIDs[i] = job.ID
				break
			}
			if ctx.Err() != nil {
				t.Fatalf("dump %d: submission never landed: %v", i, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Every job must reach done with the fault-free cause key. Polls also
	// retry: a cut response body or a peer transiently marked down is a
	// recoverable read, not a lost result.
	for i, id := range jobIDs {
		client := service.NewClient(tc.urls[i%len(tc.urls)])
		for {
			job, err := client.Result(ctx, id)
			if err == nil && job.Status == service.StatusDone && job.Bucket != "" {
				if job.Bucket != refBucket[i] {
					t.Fatalf("dump %d: chaos bucket %q != fault-free bucket %q", i, job.Bucket, refBucket[i])
				}
				break
			}
			if err == nil && job.Status == service.StatusFailed {
				t.Fatalf("dump %d: job failed under chaos: %+v", i, job)
			}
			if ctx.Err() != nil {
				t.Fatalf("dump %d: result never became readable (last: %+v, %v)", i, job, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// The run must actually have been chaotic: the injectors fired.
	var total uint64
	for i, in := range injectors {
		for k, v := range in.Counts() {
			total += v
			t.Logf("node %d fired %s ×%d", i, k, v)
		}
	}
	if total == 0 {
		t.Fatal("chaos run fired no faults — the seams are not wired")
	}
}

// TestRepairReconvergesWipedDisk is the anti-entropy acceptance test: a
// node that lost its entire store reconverges through repair sweeps alone
// — no client read ever touches the wiped keys. Both directions are
// exercised: the healthy peer's sweep pushes what the victim is missing,
// and the victim's own sweep detects and re-pulls a locally corrupted
// artifact.
func TestRepairReconvergesWipedDisk(t *testing.T) {
	bug := workload.RaceCounter()
	dumps := failingDumps(t, bug, 1)

	tc := startCluster(t, 2, (*testCluster).nodeConfig)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := service.NewClient(tc.urls[0])
	job, err := client.Submit(ctx, service.SubmitRequest{ProgramName: bug.Name, ProgramSource: bug.Source,
		Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if job, err = client.PollResult(ctx, job.ID, 10*time.Millisecond); err != nil || job.Status != service.StatusDone {
		t.Fatalf("job = %+v, err = %v", job, err)
	}

	// With Replicas=2 on a 2-node cluster, every replicable key belongs on
	// both nodes. Snapshot the inventory from node 0 before the wipe.
	var want []store.Key
	for _, k := range tc.svcs[0].Store().Keys() {
		if replicable(k) {
			want = append(want, k)
		}
	}
	if len(want) == 0 {
		t.Fatal("no replicable artifacts produced")
	}

	// Wipe node 1: fresh empty store AND journal, so nothing can come back
	// via replay — only repair can restore it.
	victim := 1
	tc.stop(victim)
	if err := os.RemoveAll(filepath.Join(tc.dir, fmt.Sprintf("store-%d", victim))); err != nil {
		t.Fatal(err)
	}
	freshStore, err := store.NewDisk(0, filepath.Join(tc.dir, "wiped-store"))
	if err != nil {
		t.Fatal(err)
	}
	j, err := service.OpenJournal(filepath.Join(tc.dir, "wiped-journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	tc.journals[victim] = j
	tc.boot(victim, service.Config{
		Analysis:     testAnalysis,
		ShardWorkers: 2,
		Store:        freshStore,
		Journal:      j,
	})
	for _, k := range want {
		if _, ok := freshStore.PeekLocal(k); ok {
			t.Fatalf("wiped node still holds %v before repair", k)
		}
	}

	// Direction 1: the HEALTHY node's sweep notices the victim's missing
	// replicas (HEAD probes) and pushes them.
	stats := tc.nodes[0].RepairNow(ctx)
	if stats.Pushed < len(want) {
		t.Fatalf("healthy sweep = %+v, want ≥%d pushes", stats, len(want))
	}
	for _, k := range want {
		data, ok := freshStore.PeekLocal(k)
		if !ok {
			t.Fatalf("repair did not restore %v", k)
		}
		if err := verifyArtifact(k, data); err != nil {
			t.Fatalf("repair restored corrupt bytes for %v: %v", k, err)
		}
	}

	// Direction 2: rot one artifact on the victim in place. Its own sweep
	// (via the POST /internal/v1/repair trigger) must detect the content
	// mismatch, drop it, and re-pull intact bytes from the peer.
	k0 := want[0]
	freshStore.Drop(k0)
	if err := freshStore.PutLocal(k0, []byte("rotted bytes")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tc.urls[victim]+"/internal/v1/repair", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var stats2 RepairStats
	if err := json.NewDecoder(resp.Body).Decode(&stats2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats2.Corrupt != 1 || stats2.Pulled < 1 {
		t.Fatalf("victim sweep = %+v, want the rotted artifact dropped and re-pulled", stats2)
	}
	if data, ok := freshStore.PeekLocal(k0); !ok || verifyArtifact(k0, data) != nil {
		t.Fatal("corrupt artifact was not healed")
	}

	// The repair metrics made it to the exposition.
	mresp, err := http.Get(tc.urls[victim] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(mbody, []byte("resd_repair_total")) {
		t.Fatal("metrics exposition lacks resd_repair_total")
	}
}

// ---- proxy failover with stub peers ----

// fakePeerRig is one real router node whose two peers are stub handlers:
// the setup for exercising proxy failover behavior (mid-transfer death,
// drain refusal) without needing a real peer to misbehave on cue.
type fakePeerRig struct {
	node    *Node
	svc     *service.Service
	selfURL string
	fp      string // program fingerprint whose order is [fakeA, fakeB, self]
}

func newFakePeerRig(t *testing.T, fakeA, fakeB http.Handler) *fakePeerRig {
	t.Helper()
	srvA := httptest.NewServer(fakeA)
	srvB := httptest.NewServer(fakeB)
	var nodeH atomic.Value
	selfSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, _ := nodeH.Load().(http.Handler)
		if h == nil {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	svc := service.New(service.Config{Analysis: testAnalysis, ShardWorkers: 1})
	node, err := New(Config{
		Self:     selfSrv.URL,
		Peers:    []string{selfSrv.URL, srvA.URL, srvB.URL},
		Replicas: 1,
		Service:  svc,
		// No probes during the test: peer behavior is scripted per request.
		ProbeInterval: time.Hour,
		SpoolDir:      t.TempDir(),
		Client:        &http.Client{Timeout: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	nodeH.Store(node.Handler())
	t.Cleanup(func() {
		node.Close()
		svc.Shutdown(context.Background())
		selfSrv.Close()
		srvA.Close()
		srvB.Close()
	})

	// Find a program fingerprint that ranks the stubs first and self last,
	// so routeSubmit must proxy (and fail over) before serving locally.
	for i := 0; ; i++ {
		cand := store.BytesFingerprint([]byte(fmt.Sprintf("rig-probe-%d", i))).String()
		order := rank(node.peers, cand)
		if order[0] == srvA.URL && order[1] == srvB.URL {
			return &fakePeerRig{node: node, svc: svc, selfURL: selfSrv.URL, fp: cand}
		}
	}
}

func (rig *fakePeerRig) counters() (spooled, failovers uint64) {
	rig.node.mu.Lock()
	defer rig.node.mu.Unlock()
	return rig.node.spooledBytes, rig.node.failovers
}

// TestLargeDumpProxyFailoverMidTransfer is the big-body acceptance test:
// a submission well past the old 64MB routing cap crosses the router via
// the disk spool, the owner dies mid-transfer after consuming part of the
// body, and the failover peer still receives the body complete — the
// spool's rewind, not a second client upload, replays it.
func TestLargeDumpProxyFailoverMidTransfer(t *testing.T) {
	var aRead, bRead atomic.Int64
	fakeA := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		// Consume a slice of the body, then die mid-transfer.
		n, _ := io.CopyN(io.Discard, r.Body, 1<<20)
		aRead.Add(n)
		panic(http.ErrAbortHandler)
	})
	fakeB := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		n, _ := io.Copy(io.Discard, r.Body)
		bRead.Store(n)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"id":"job-big","status":"queued"}`)
	})
	rig := newFakePeerRig(t, fakeA, fakeB)

	// ~68MB body: the head routes on program_id; the oversized dump value
	// is never materialized by the router (only spooled and streamed).
	var sb strings.Builder
	sb.WriteString(`{"program_id":"` + rig.fp + `","dump":"`)
	chunk := strings.Repeat("Q", 1<<20)
	for i := 0; i < 68; i++ {
		sb.WriteString(chunk)
	}
	sb.WriteString(`"}`)
	body := sb.String()
	if len(body) <= 64<<20 {
		t.Fatalf("test body is only %d bytes; must exceed the old 64MB cap", len(body))
	}

	resp, err := http.Post(rig.selfURL+"/v1/dumps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || !bytes.Contains(out, []byte("job-big")) {
		t.Fatalf("failover response = %d %q, want the stub owner's 202", resp.StatusCode, out)
	}
	if got := bRead.Load(); got != int64(len(body)) {
		t.Fatalf("failover peer received %d of %d body bytes", got, len(body))
	}
	if got := aRead.Load(); got >= int64(len(body)) {
		t.Fatalf("dead owner consumed the whole body (%d) — no mid-transfer death happened", got)
	}
	spooled, failovers := rig.counters()
	if spooled < uint64(len(body)) {
		t.Fatalf("spooledBytes = %d, want the body spilled to disk (≥%d)", spooled, len(body))
	}
	if failovers != 1 {
		t.Fatalf("failovers = %d, want exactly 1", failovers)
	}
}

// TestDrainFailoverMidFlightProxiedDump: an owner that starts draining
// mid-submission (it consumed part of the proxied body, then answered
// 503) triggers a clean failover; and when every candidate including the
// local node is draining, the client gets a prompt retryable 503 — never
// a hang.
func TestDrainFailoverMidFlightProxiedDump(t *testing.T) {
	var allDraining atomic.Bool
	drainHandler := func(partialRead int64) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			io.CopyN(io.Discard, r.Body, partialRead)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"draining"}`)
		}
	}
	fakeA := drainHandler(512) // drains after eating part of the body
	fakeB := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		if allDraining.Load() {
			drainHandler(0)(w, r)
			return
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"id":"job-drain","status":"queued"}`)
	})
	rig := newFakePeerRig(t, fakeA, fakeB)

	body := `{"program_id":"` + rig.fp + `","dump":"` + strings.Repeat("x", 8192) + `"}`
	resp, err := http.Post(rig.selfURL+"/v1/dumps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || !bytes.Contains(out, []byte("job-drain")) {
		t.Fatalf("mid-flight drain did not fail over cleanly: %d %q", resp.StatusCode, out)
	}
	if _, failovers := rig.counters(); failovers != 1 {
		t.Fatalf("failovers = %d, want 1", failovers)
	}

	// Whole cluster draining: the local service drains too, and the
	// client must get a prompt, clean 503 — retryable, not a hang.
	if err := rig.svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	allDraining.Store(true)
	bounded := &http.Client{Timeout: 10 * time.Second}
	start := time.Now()
	resp2, err := bounded.Post(rig.selfURL+"/v1/dumps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("fully-draining cluster hung or broke the connection: %v", err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fully-draining cluster answered %d, want a retryable 503", resp2.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain refusal took %v — that is a hang, not a clean error", elapsed)
	}
}
