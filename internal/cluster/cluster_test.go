package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"res"
	"res/internal/checkpoint"
	"res/internal/coredump"
	"res/internal/evidence"
	"res/internal/obs"
	"res/internal/service"
	"res/internal/store"
	"res/internal/workload"
)

// ---- rendezvous hashing ----

func TestRendezvousStableAndSpread(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	owned := map[string]int{}
	for i := 0; i < 120; i++ {
		key := fmt.Sprintf("program-%d", i)
		order := rank(nodes, key)
		if len(order) != 3 {
			t.Fatalf("rank dropped nodes: %v", order)
		}
		again := rank(nodes, key)
		for j := range order {
			if order[j] != again[j] {
				t.Fatalf("rank is not deterministic: %v vs %v", order, again)
			}
		}
		owned[order[0]]++
	}
	for _, n := range nodes {
		if owned[n] == 0 {
			t.Fatalf("node %s owns nothing across 120 keys: %v", n, owned)
		}
	}
}

// TestRendezvousMinimalDisruption is the property the failover design
// leans on: removing a node only remaps the keys it owned; every other
// key keeps its owner, and a removed owner's keys fail over to their
// individual second choices.
func TestRendezvousMinimalDisruption(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	dead := nodes[0]
	survivors := nodes[1:]
	for i := 0; i < 120; i++ {
		key := fmt.Sprintf("program-%d", i)
		before := rank(nodes, key)
		after := rank(survivors, key)
		if before[0] == dead {
			if after[0] != before[1] {
				t.Fatalf("key %s: failover owner %s, want the second choice %s", key, after[0], before[1])
			}
			continue
		}
		if after[0] != before[0] {
			t.Fatalf("key %s: owner moved from %s to %s though its node survived", key, before[0], after[0])
		}
	}
}

// ---- health state machine ----

func TestHealthStateMachine(t *testing.T) {
	p := newProber("self", []string{"self", "peer"})
	p.fr = obs.NewFlightRecorder(16)
	st := func() PeerState { return p.state("peer") }
	// downEvents counts the flight recorder's records of the peer going
	// down: one per transition into down, none for other transitions.
	downEvents := func() int {
		evs, _ := p.fr.Snapshot()
		n := 0
		for _, ev := range evs {
			if ev.Kind == "health" {
				n++
			}
		}
		return n
	}
	if st() != StateHealthy {
		t.Fatalf("initial state = %v", st())
	}
	p.observe("peer", false, "conn refused")
	if st() != StateSuspect || !st().Routable() {
		t.Fatalf("after one failure: %v (routable=%v), want routable suspect", st(), st().Routable())
	}
	p.observe("peer", true, "")
	if st() != StateHealthy {
		t.Fatalf("suspect did not heal on success: %v", st())
	}
	p.observe("peer", false, "x")
	p.observe("peer", false, "x")
	if st() != StateDown || st().Routable() {
		t.Fatalf("after two failures: %v, want unroutable down", st())
	}
	if downEvents() != 1 {
		t.Fatalf("%d health events after going down, want 1", downEvents())
	}
	p.observe("peer", true, "")
	if st() != StateRecovering || !st().Routable() {
		t.Fatalf("first success after down: %v, want routable recovering", st())
	}
	p.observe("peer", false, "flap")
	if st() != StateDown {
		t.Fatalf("flap mid-recovery: %v, want down", st())
	}
	if downEvents() != 2 {
		t.Fatalf("%d health events after the flap, want 2", downEvents())
	}
	p.observe("peer", true, "")
	p.observe("peer", true, "")
	if st() != StateHealthy {
		t.Fatalf("two successes after down: %v, want healthy", st())
	}
	if p.state("self") != StateHealthy {
		t.Fatal("self must always be healthy")
	}
}

// ---- artifact verification ----

func TestVerifyArtifact(t *testing.T) {
	blob := []byte("canonical dump bytes")
	k := store.DumpKey(store.BytesFingerprint(blob))
	if err := verifyArtifact(k, blob); err != nil {
		t.Fatalf("honest dump rejected: %v", err)
	}
	if err := verifyArtifact(k, []byte("tampered")); err == nil {
		t.Fatal("tampered dump blob accepted")
	}
	rk := store.ResultKey(store.BytesFingerprint([]byte("p")), store.BytesFingerprint([]byte("d")), store.OptionsFingerprint("o"))
	if err := verifyArtifact(rk, []byte(`{"verdict":"x"}`)); err != nil {
		t.Fatalf("honest report rejected: %v", err)
	}
	if err := verifyArtifact(rk, []byte("not json")); err == nil {
		t.Fatal("garbage result accepted")
	}
	if err := verifyArtifact(store.Key{Space: "journal-snapshot"}, []byte("{}")); err == nil {
		t.Fatal("journal space accepted for replication")
	}
}

// ---- in-process cluster harness ----

// failingDumps mirrors the service tests' generator: n distinct failing
// dumps of the bug's program.
func failingDumps(t testing.TB, bug *workload.Bug, n int) [][]byte {
	t.Helper()
	p := bug.Program()
	var out [][]byte
	for _, base := range bug.Configs {
		for s := int64(0); s < 300 && len(out) < n; s++ {
			cfg := base
			cfg.Seed = s
			d, err := res.Run(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d == nil || d.Fault.Kind == coredump.FaultBudget {
				continue
			}
			if bug.WantFault != coredump.FaultNone && d.Fault.Kind != bug.WantFault {
				continue
			}
			b, err := d.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		if len(out) >= n {
			break
		}
	}
	if len(out) < n {
		t.Fatalf("%s: only %d of %d failing dumps found", bug.Name, len(out), n)
	}
	return out
}

var testAnalysis = service.AnalysisConfig{MaxDepth: 12, MaxNodes: 2000}

// normalizeReport canonicalizes a report for byte-equality checks across
// nodes: zero the one documented nondeterministic field (elapsed_ms, the
// same convention the engine's own equivalence tests use) and compact
// the encoding (HTTP responses embed the report compacted).
func normalizeReport(t testing.TB, rep []byte) []byte {
	t.Helper()
	var r res.ReportJSON
	if err := json.Unmarshal(rep, &r); err != nil {
		t.Fatalf("unparseable report: %v\n%s", err, rep)
	}
	r.ElapsedMS = 0
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// testCluster is N in-process resd nodes behind real HTTP servers. The
// servers exist before the nodes (peer URLs must be known to build the
// membership), so each serves through a swappable handler.
type testCluster struct {
	t        *testing.T
	urls     []string
	srvs     []*httptest.Server
	handlers []atomic.Value // http.Handler
	svcs     []*service.Service
	journals []*service.Journal
	nodes    []*Node
	dir      string
	// clusterCfg, when set (from inside mkCfg, before the first boot),
	// tweaks each node's cluster-layer Config — chaos tests use it to arm
	// fault injectors.
	clusterCfg func(i int, cfg Config) Config
}

func startCluster(t *testing.T, n int, mkCfg func(tc *testCluster, i int) service.Config) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, dir: t.TempDir()}
	tc.handlers = make([]atomic.Value, n)
	for i := 0; i < n; i++ {
		i := i
		tc.srvs = append(tc.srvs, httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := tc.handlers[i].Load().(http.Handler)
			if h == nil {
				http.Error(w, "starting", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})))
		tc.urls = append(tc.urls, tc.srvs[i].URL)
	}
	tc.svcs = make([]*service.Service, n)
	tc.journals = make([]*service.Journal, n)
	tc.nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		tc.boot(i, mkCfg(tc, i))
	}
	t.Cleanup(func() {
		for i := range tc.nodes {
			if tc.nodes[i] != nil {
				tc.nodes[i].Close()
			}
		}
		for _, srv := range tc.srvs {
			srv.Close()
		}
		for i, svc := range tc.svcs {
			if svc != nil {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				svc.Shutdown(ctx)
				cancel()
			}
			if tc.journals[i] != nil {
				tc.journals[i].Close()
			}
		}
	})
	return tc
}

// nodeConfig is the per-node service configuration with durable store
// and journal under the cluster's temp dir.
func (tc *testCluster) nodeConfig(i int) service.Config {
	tc.t.Helper()
	st, err := store.NewDisk(0, filepath.Join(tc.dir, fmt.Sprintf("store-%d", i)))
	if err != nil {
		tc.t.Fatal(err)
	}
	j, err := service.OpenJournal(filepath.Join(tc.dir, fmt.Sprintf("journal-%d.jsonl", i)))
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.journals[i] = j
	return service.Config{
		Analysis:     testAnalysis,
		ShardWorkers: 2,
		Store:        st,
		Journal:      j,
	}
}

// boot builds node i's service and cluster layer and swaps its handler
// live. Used for initial start and for restarts.
func (tc *testCluster) boot(i int, cfg service.Config) {
	tc.t.Helper()
	tc.svcs[i] = service.New(cfg)
	ncfg := Config{
		Self:          tc.urls[i],
		Peers:         tc.urls,
		Replicas:      2,
		Service:       tc.svcs[i],
		ProbeInterval: 100 * time.Millisecond,
		Client:        &http.Client{Timeout: 5 * time.Second},
	}
	if tc.clusterCfg != nil {
		ncfg = tc.clusterCfg(i, ncfg)
	}
	node, err := New(ncfg)
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.nodes[i] = node
	tc.handlers[i].Store(node.Handler())
}

// stop tears node i down without touching its disk state.
func (tc *testCluster) stop(i int) {
	tc.t.Helper()
	tc.nodes[i].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	tc.svcs[i].Shutdown(ctx)
	cancel()
	tc.journals[i].Close()
	tc.nodes[i], tc.svcs[i], tc.journals[i] = nil, nil, nil
}

// singleNodeReport analyzes one dump on a standalone service with the
// same analysis configuration: the byte-equality reference.
func singleNodeReport(t *testing.T, bug *workload.Bug, dump []byte) []byte {
	t.Helper()
	svc := service.New(service.Config{Analysis: testAnalysis, ShardWorkers: 2})
	defer svc.Shutdown(context.Background())
	progID, err := svc.RegisterSource(bug.Name, bug.Source)
	if err != nil {
		t.Fatal(err)
	}
	job, err := svc.Submit(service.SubmitRequest{ProgramID: progID, Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	if job, err = svc.Wait(context.Background(), job.ID); err != nil || job.Status != service.StatusDone {
		t.Fatalf("reference job = %+v, err = %v", job, err)
	}
	return job.Report
}

// programFP computes the routing key the cluster will use for bug.
func programFP(t *testing.T, bug *workload.Bug) string {
	t.Helper()
	fp, err := store.ProgramFingerprint(bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	return fp.String()
}

// TestTwoNodeClusterEndToEnd is the PR's acceptance test: a dump
// submitted to the non-owning node is routed to its owner and comes back
// byte-identical to a single-node analysis; the result is readable from
// both nodes (write-through replication); and restarting the owner
// restores its job history and bucket membership from the journal.
func TestTwoNodeClusterEndToEnd(t *testing.T) {
	bug := workload.RaceCounter()
	dumps := failingDumps(t, bug, 1)
	reference := singleNodeReport(t, bug, dumps[0])

	tc := startCluster(t, 2, (*testCluster).nodeConfig)
	fp := programFP(t, bug)
	order := rank(tc.urls, fp)
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

	// Submit to the NON-owner; the router must proxy to the owner.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := service.NewClient(tc.urls[otherIdx])
	job, err := client.Submit(ctx, service.SubmitRequest{ProgramName: bug.Name, ProgramSource: bug.Source,
		Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	job, err = client.PollResult(ctx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != service.StatusDone {
		t.Fatalf("job = %+v, want done", job)
	}
	if !bytes.Equal(normalizeReport(t, job.Report), normalizeReport(t, reference)) {
		t.Fatalf("cluster report differs from single-node run:\n%s\nvs\n%s", job.Report, reference)
	}
	if v, _ := tc.svcs[ownerIdx].MetricsSnapshot().Value("resd_completed_total"); v != 1 {
		t.Fatalf("owner completed %v analyses, want the analysis to have run on the owner", v)
	}
	if v, _ := tc.svcs[otherIdx].MetricsSnapshot().Value("resd_completed_total"); v != 0 {
		t.Fatalf("non-owner completed %v analyses, want no local analysis", v)
	}

	// Replication: the result answers from BOTH nodes — the owner from
	// its job record, the non-owner from its replicated store tier.
	for i := range tc.urls {
		got, err := service.NewClient(tc.urls[i]).Result(ctx, job.ID)
		if err != nil {
			t.Fatalf("node %d result: %v", i, err)
		}
		if got.Status != service.StatusDone || !bytes.Equal(normalizeReport(t, got.Report), normalizeReport(t, reference)) {
			t.Fatalf("node %d served %+v, want the replicated report", i, got)
		}
	}
	// The non-owner's copy arrived via write-through, not via a peer
	// proxy: its local store holds the bytes.
	if _, ok := tc.svcs[otherIdx].Store().GetByID(job.ID); !ok {
		t.Fatal("write-through did not land the result in the non-owner's store")
	}

	// The cluster-wide bucket view lists the job from either entry point.
	buckets, err := client.Buckets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 1 || buckets[0].Count != 1 || buckets[0].JobIDs[0] != job.ID {
		t.Fatalf("merged buckets = %+v, want the one job", buckets)
	}

	// Restart the owner. Journal + store disk tier restore its history:
	// the job ID still resolves (with its report) and the bucket
	// membership survives.
	tc.stop(ownerIdx)
	tc.boot(ownerIdx, tc.nodeConfig(ownerIdx))
	ownerClient := service.NewClient(tc.urls[ownerIdx])
	got, err := ownerClient.Result(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != service.StatusDone || !bytes.Equal(normalizeReport(t, got.Report), normalizeReport(t, reference)) {
		t.Fatalf("restarted owner served %+v, want the journaled job's report", got)
	}
	if got.Bucket != job.Bucket {
		t.Fatalf("restarted owner lost the bucket: %q, want %q", got.Bucket, job.Bucket)
	}
	buckets, err = ownerClient.Buckets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 1 || buckets[0].Count != 1 || buckets[0].JobIDs[0] != job.ID {
		t.Fatalf("buckets after restart = %+v, want the journaled membership", buckets)
	}
	snap := tc.svcs[ownerIdx].MetricsSnapshot()
	programs, _ := snap.Value("resd_programs")
	if replayed, _ := snap.Value("resd_journal_replayed"); programs != 1 || replayed == 0 {
		t.Fatalf("restarted owner has %v programs, %v replayed entries, want journaled program + replayed entries", programs, replayed)
	}

	// Evidence attachments traverse the proxy byte-exactly. Submit a
	// dump+evidence pair through the NON-owner (proxied to the owner),
	// then the identical pair directly at the owner: the job ID hashes
	// the canonical evidence bytes into the cache identity, so the IDs
	// can only match if the proxy preserved the attachment bit-for-bit.
	evDump, evSet, _, err := bug.FindFailureRecorded(60, evidence.RecordConfig{
		EventEvery: 3, EventWindow: 64, BranchWindow: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evSet) == 0 {
		t.Fatal("recorder produced no evidence")
	}
	evDumpBytes, err := evDump.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	evBytes := evSet.Encode()
	viaProxy, err := client.Submit(ctx, service.SubmitRequest{ProgramName: bug.Name,
		ProgramSource: bug.Source, Dump: evDumpBytes, Evidence: evBytes})
	if err != nil {
		t.Fatal(err)
	}
	if len(viaProxy.Evidence) == 0 {
		t.Fatalf("proxied submission lost its evidence kinds: %+v", viaProxy)
	}
	if viaProxy, err = client.PollResult(ctx, viaProxy.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if viaProxy.Status != service.StatusDone {
		t.Fatalf("evidence job = %+v, want done", viaProxy)
	}
	direct, err := ownerClient.Submit(ctx, service.SubmitRequest{ProgramID: programFP(t, bug),
		Dump: evDumpBytes, Evidence: evBytes})
	if err != nil {
		t.Fatal(err)
	}
	if direct.ID != viaProxy.ID {
		t.Fatalf("proxied evidence tuple %s != direct tuple %s: attachment not preserved byte-exactly", viaProxy.ID, direct.ID)
	}
	if !direct.Cached {
		t.Fatalf("identical (dump, evidence) resubmission did not cache-hit: %+v", direct)
	}
	// And the same dump without evidence is a different tuple.
	plain, err := ownerClient.Submit(ctx, service.SubmitRequest{ProgramID: programFP(t, bug), Dump: evDumpBytes})
	if err != nil {
		t.Fatal(err)
	}
	if plain.ID == viaProxy.ID {
		t.Fatal("evidence did not change the cluster-side cache identity")
	}
	// The events endpoint resolves the owner's job from the non-owner
	// (terminal job: a single status line).
	resp, err := http.Get(tc.urls[otherIdx] + "/v1/jobs/" + viaProxy.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"status":"done"`)) {
		t.Fatalf("events via non-owner: %d %q", resp.StatusCode, body)
	}

	// Checkpoint attachments traverse the proxy byte-exactly too: the job
	// ID hashes the canonical ring bytes into the cache identity, so the
	// proxied and direct submissions can only coalesce if the proxy
	// relayed the attachment bit-for-bit.
	ckDump, ring, _, err := bug.FindFailureCheckpointed(60, checkpoint.Config{Every: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Empty() {
		t.Fatal("recorder produced no checkpoints")
	}
	ckDumpBytes, err := ckDump.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ckBytes := ring.Encode()
	ckViaProxy, err := client.Submit(ctx, service.SubmitRequest{ProgramName: bug.Name,
		ProgramSource: bug.Source, Dump: ckDumpBytes, Checkpoints: ckBytes})
	if err != nil {
		t.Fatal(err)
	}
	if !ckViaProxy.Checkpointed {
		t.Fatalf("proxied submission lost its checkpoint attachment: %+v", ckViaProxy)
	}
	if ckViaProxy, err = client.PollResult(ctx, ckViaProxy.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ckViaProxy.Status != service.StatusDone {
		t.Fatalf("checkpoint job = %+v, want done", ckViaProxy)
	}
	ckDirect, err := ownerClient.Submit(ctx, service.SubmitRequest{ProgramID: programFP(t, bug),
		Dump: ckDumpBytes, Checkpoints: ckBytes})
	if err != nil {
		t.Fatal(err)
	}
	if ckDirect.ID != ckViaProxy.ID {
		t.Fatalf("proxied checkpoint tuple %s != direct tuple %s: attachment not preserved byte-exactly", ckViaProxy.ID, ckDirect.ID)
	}
	if !ckDirect.Cached {
		t.Fatalf("identical (dump, checkpoints) resubmission did not cache-hit: %+v", ckDirect)
	}
	if ckPlain, err := ownerClient.Submit(ctx, service.SubmitRequest{ProgramID: programFP(t, bug), Dump: ckDumpBytes}); err != nil {
		t.Fatal(err)
	} else if ckPlain.ID == ckViaProxy.ID {
		t.Fatal("checkpoints did not change the cluster-side cache identity")
	}
}

// TestReadThroughRepairsLostDisk: a node that lost its entire store
// lazily repopulates from its peers on the first miss.
func TestReadThroughRepairsLostDisk(t *testing.T) {
	bug := workload.RaceCounter()
	dumps := failingDumps(t, bug, 1)

	tc := startCluster(t, 2, (*testCluster).nodeConfig)
	fp := programFP(t, bug)
	order := rank(tc.urls, fp)
	ownerIdx := 0
	for i, u := range tc.urls {
		if u == order[0] {
			ownerIdx = i
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := service.NewClient(tc.urls[ownerIdx])
	job, err := client.Submit(ctx, service.SubmitRequest{ProgramName: bug.Name, ProgramSource: bug.Source,
		Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if job, err = client.PollResult(ctx, job.ID, 10*time.Millisecond); err != nil || job.Status != service.StatusDone {
		t.Fatalf("job = %+v, err = %v", job, err)
	}

	// Simulate the owner losing its disk: a fresh empty store, same
	// cluster. A resubmission's cache probe misses both local tiers and
	// must pull the result back from the replica.
	tc.stop(ownerIdx)
	freshStore, err := store.NewDisk(0, filepath.Join(tc.dir, "rebuilt-store"))
	if err != nil {
		t.Fatal(err)
	}
	j, err := service.OpenJournal(filepath.Join(tc.dir, "rebuilt-journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	tc.journals[ownerIdx] = j
	tc.boot(ownerIdx, service.Config{
		Analysis:     testAnalysis,
		ShardWorkers: 2,
		Store:        freshStore,
		Journal:      j,
	})

	again, err := service.NewClient(tc.urls[ownerIdx]).Submit(ctx,
		service.SubmitRequest{ProgramName: bug.Name, ProgramSource: bug.Source, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || !bytes.Equal(normalizeReport(t, again.Report), normalizeReport(t, job.Report)) {
		t.Fatalf("resubmission after disk loss = %+v, want a read-through cache hit", again)
	}
	if st := freshStore.Stats(); st.ReplicaHits == 0 {
		t.Fatalf("store stats = %+v, want the answer pulled from a peer", st)
	}
}

// TestThreeNodeFailover kills a program's owner mid-job and asserts the
// resubmitted dump lands on the rendezvous failover node with a report
// byte-identical to a single-node run.
func TestThreeNodeFailover(t *testing.T) {
	bug := workload.RaceCounter()
	dumps := failingDumps(t, bug, 1)
	reference := singleNodeReport(t, bug, dumps[0])

	// Every node carries a gate: once blockIdx is set to a node index,
	// that node's workers hang before analyzing — the "mid-job" window.
	var blockIdx atomic.Int64
	blockIdx.Store(-1)
	release := make(chan struct{})
	tc := startCluster(t, 3, func(tc *testCluster, i int) service.Config {
		cfg := tc.nodeConfig(i)
		cfg.BeforeAnalyze = func() {
			if int64(i) == blockIdx.Load() {
				<-release
			}
		}
		return cfg
	})
	fp := programFP(t, bug)
	order := rank(tc.urls, fp)
	idxOf := func(u string) int {
		for i, v := range tc.urls {
			if v == u {
				return i
			}
		}
		t.Fatalf("unknown url %s", u)
		return -1
	}
	ownerIdx, failoverIdx := idxOf(order[0]), idxOf(order[1])
	submitIdx := idxOf(order[2]) // the node least likely to serve it

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := service.NewClient(tc.urls[submitIdx])

	// First submission: proxied to the owner, whose worker hangs.
	blockIdx.Store(int64(ownerIdx))
	job, err := client.Submit(ctx, service.SubmitRequest{ProgramName: bug.Name, ProgramSource: bug.Source,
		Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if job.Status.Terminal() {
		t.Fatalf("job = %+v, want it queued on the owner", job)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if j, ok := tc.svcs[ownerIdx].Job(job.ID); ok && j.Status == service.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running on the owner")
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the owner mid-job: its HTTP server goes away; the blocked
	// worker (and its eventual result) dies with the process as far as
	// the cluster can tell.
	ownerSrv := tc.srvs[ownerIdx]
	ownerSrv.CloseClientConnections()
	ownerSrv.Close()

	// Resubmit the same dump via the same entry node. The router's proxy
	// to the dead owner fails over to the next node in the preference
	// order, which analyzes it fresh.
	again, err := client.Submit(ctx, service.SubmitRequest{ProgramName: bug.Name, ProgramSource: bug.Source,
		Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	final, err := tc.svcs[failoverIdx].Wait(ctx, again.ID)
	if err != nil {
		t.Fatalf("resubmitted job did not land on the failover node: %v", err)
	}
	if final.Status != service.StatusDone {
		t.Fatalf("failover job = %+v, want done", final)
	}
	if !bytes.Equal(normalizeReport(t, final.Report), normalizeReport(t, reference)) {
		t.Fatalf("failover report differs from single-node run:\n%s\nvs\n%s", final.Report, reference)
	}
	if v, _ := tc.svcs[failoverIdx].MetricsSnapshot().Value("resd_completed_total"); v != 1 {
		t.Fatalf("failover node completed %v analyses, want it to have run the analysis", v)
	}
	if tc.nodes[submitIdx].failovers.Load() == 0 {
		t.Fatal("submitting node recorded no failover")
	}

	// The prober converges on the owner's death: suspect after the first
	// failed observation, down after failThreshold.
	deadline = time.Now().Add(10 * time.Second)
	for {
		st := tc.nodes[submitIdx].prober.state(tc.urls[ownerIdx])
		if st == StateDown {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner never marked down (state %v)", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Unblock the dead owner's worker so cleanup can drain it
	// (httptest.Server.Close is idempotent, so Cleanup can re-Close).
	close(release)
	tc.stop(ownerIdx)
}
