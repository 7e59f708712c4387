package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"res"
	"res/internal/coredump"
	"res/internal/mem"
	"res/internal/store"
	"res/internal/workload"
)

// metrics takes one /metrics snapshot of svc and returns a reader of its
// counters and gauges by series name (labels as k1, v1, ...); a series
// the snapshot lacks fails the test.
func metrics(t testing.TB, svc *Service) func(name string, kv ...string) float64 {
	snap := svc.MetricsSnapshot()
	return func(name string, kv ...string) float64 {
		t.Helper()
		v, ok := snap.Value(name, kv...)
		if !ok {
			t.Fatalf("no series %s%q in the metrics snapshot", name, kv)
		}
		return v
	}
}

// failingDumps produces n distinct failing dumps of the bug's program.
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

func testService(t testing.TB, cfg Config) (*Service, string, [][]byte) {
	t.Helper()
	bug := workload.RaceCounter()
	if cfg.Analysis == (AnalysisConfig{}) {
		cfg.Analysis = AnalysisConfig{MaxDepth: 14, MaxNodes: 4000}
	}
	svc := New(cfg)
	id, err := svc.RegisterProgram(bug.Name, bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	return svc, id, failingDumps(t, bug, 4)
}

func TestSubmitAnalyzeAndBucket(t *testing.T) {
	svc, progID, dumps := testService(t, Config{ShardWorkers: 2})
	defer svc.Shutdown(context.Background())

	job, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if job.Cached || job.Status.Terminal() {
		t.Fatalf("fresh submit should queue, got %+v", job)
	}
	done, err := svc.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone || len(done.Report) == 0 {
		t.Fatalf("job = %+v, want done with report", done)
	}
	if done.Bucket == "" {
		t.Fatal("completed job has no bucket")
	}
	if bs := svc.Buckets(); len(bs) != 1 || bs[0].Count != 1 {
		t.Fatalf("buckets = %+v, want one bucket with one member", bs)
	}
}

// TestCacheHitDeterminism is the acceptance property: resubmitting the
// same dump is served from the store, byte-identical to the fresh report,
// and observable in the cache hit-rate metric.
func TestCacheHitDeterminism(t *testing.T) {
	svc, progID, dumps := testService(t, Config{})
	defer svc.Shutdown(context.Background())

	first, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := svc.Wait(context.Background(), first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached {
		t.Fatal("first analysis claims to be cached")
	}

	again, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Status != StatusDone {
		t.Fatalf("resubmission = %+v, want cached done", again)
	}
	if again.ID != fresh.ID {
		t.Fatalf("same dump produced different job IDs %s vs %s", again.ID, fresh.ID)
	}
	if !bytes.Equal(again.Report, fresh.Report) {
		t.Fatalf("cached report differs from fresh report:\n%s\nvs\n%s", again.Report, fresh.Report)
	}
	m := metrics(t, svc)
	if m("resd_cache_hits_total") != 1 || m("resd_cache_misses_total") != 1 {
		t.Fatalf("metrics = %v hits / %v misses, want 1 hit / 1 miss", m("resd_cache_hits_total"), m("resd_cache_misses_total"))
	}
	if m("resd_cache_hit_rate") != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", m("resd_cache_hit_rate"))
	}
	// The store itself must have answered: its own hit counter moved.
	if st := svc.Store().Stats(); st.Hits == 0 {
		t.Fatalf("store stats = %+v, want at least one hit", st)
	}
}

// TestBackpressure fills the only worker and the one queue slot, then
// expects the third submission to bounce with ErrQueueFull.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	svc, progID, dumps := testService(t, Config{
		QueueDepth:    1,
		ShardWorkers:  1,
		BeforeAnalyze: func() { <-release },
	})
	defer func() {
		svc.Shutdown(context.Background())
	}()

	// First dump occupies the worker (blocked in BeforeAnalyze)...
	j1, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, j1.ID, StatusRunning)
	// ...second fills the queue...
	if _, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[1]}); err != nil {
		t.Fatal(err)
	}
	// ...third must be rejected, not dropped or blocked.
	if _, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[2]}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	m := metrics(t, svc)
	if m("resd_rejected_total") != 1 || m("resd_queue_depth") != 1 {
		t.Fatalf("metrics = rejected %v queue_depth %v, want rejected=1 queue_depth=1", m("resd_rejected_total"), m("resd_queue_depth"))
	}
	close(release)
	for _, id := range []string{j1.ID} {
		if _, err := svc.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGracefulDrainPartialResults forces a drain deadline while one
// analysis is in flight and another is queued: the in-flight one must
// complete with a partial report, the queued one must be canceled, and
// neither partial nor canceled work may poison the cache.
func TestGracefulDrainPartialResults(t *testing.T) {
	release := make(chan struct{})
	svc, progID, dumps := testService(t, Config{
		QueueDepth:    4,
		ShardWorkers:  1,
		BeforeAnalyze: func() { <-release },
	})

	j1, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, j1.ID, StatusRunning)
	j2, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[1]})
	if err != nil {
		t.Fatal(err)
	}

	// Drain with a deadline the blocked worker will blow through; release
	// the worker only once the drain has forced cancellation.
	shCtx, shCancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer shCancel()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.Shutdown(shCtx) }()
	go func() {
		<-svc.baseCtx.Done()
		close(release)
	}()
	if err := <-errCh; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}

	// New work is refused while and after draining.
	if _, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[2]}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}

	got1, _ := svc.Job(j1.ID)
	if got1.Status != StatusDone || !got1.Partial {
		t.Fatalf("in-flight job = %+v, want done+partial", got1)
	}
	if len(got1.Report) == 0 {
		t.Fatal("partial job lost its report")
	}
	got2, _ := svc.Job(j2.ID)
	if got2.Status != StatusCanceled {
		t.Fatalf("queued job = %+v, want canceled", got2)
	}
	// Partial results must not be served to future submitters, and a
	// memory-only store archives no dump blobs: nothing was stored.
	if st := svc.Store().Stats(); st.Puts != 0 {
		t.Fatalf("store puts = %+v, want none (partials never cached)", st)
	}
}

// TestPartialResultsRequeueOnResubmit guards the cache-integrity rule:
// a result cut short by the job timeout is reported but is NOT the
// tuple's answer of record — resubmitting the same dump re-analyzes it
// instead of serving the stale partial.
func TestPartialResultsRequeueOnResubmit(t *testing.T) {
	svc, progID, dumps := testService(t, Config{JobTimeout: time.Nanosecond})
	defer svc.Shutdown(context.Background())

	first, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.Wait(context.Background(), first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || !got.Partial {
		t.Fatalf("job = %+v, want done+partial under a 1ns timeout", got)
	}

	again, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != first.ID {
		t.Fatalf("requeue changed the job ID: %s vs %s", again.ID, first.ID)
	}
	if again.Cached || again.Status.Terminal() {
		t.Fatalf("resubmission = %+v, want a fresh queued analysis, not the stale partial", again)
	}
	if _, err := svc.Wait(context.Background(), again.ID); err != nil {
		t.Fatal(err)
	}
	m := metrics(t, svc)
	if m("resd_cache_hits_total") != 0 || m("resd_cache_misses_total") != 2 {
		t.Fatalf("metrics = %v hits / %v misses, want 0 hits / 2 misses (partials never cached)", m("resd_cache_hits_total"), m("resd_cache_misses_total"))
	}
	// The stale partial's bucket membership was replaced, not duplicated.
	total := 0
	for _, b := range svc.Buckets() {
		total += b.Count
	}
	if total > 1 {
		t.Fatalf("buckets count the same job twice: %+v", svc.Buckets())
	}
}

// TestConcurrentSubmits hammers one service from many goroutines with a
// mix of duplicate and distinct dumps across two programs; run under
// -race this is the service's concurrency contract.
func TestConcurrentSubmits(t *testing.T) {
	svc, progID, dumps := testService(t, Config{ShardWorkers: 4, QueueDepth: 256})
	bug2 := workload.AtomViolation()
	progID2, err := svc.RegisterProgram(bug2.Name, bug2.Program())
	if err != nil {
		t.Fatal(err)
	}
	dumps2 := failingDumps(t, bug2, 2)

	var wg sync.WaitGroup
	var mu sync.Mutex
	ids := make(map[string]bool)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				pid, d := progID, dumps[(g+i)%len(dumps)]
				if (g+i)%3 == 0 {
					pid, d = progID2, dumps2[i%len(dumps2)]
				}
				job, err := svc.Submit(SubmitRequest{ProgramID: pid, Dump: d})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				ids[job.ID] = true
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for id := range ids {
		job, err := svc.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status != StatusDone {
			t.Fatalf("job %s = %+v, want done", id, job)
		}
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := svc.MetricsSnapshot()
	m := metrics(t, svc)
	// 6 distinct (program, dump) tuples exist; everything else coalesced
	// or hit the cache.
	if jobs := m("resd_jobs"); jobs != float64(len(ids)) || jobs > 6 {
		t.Fatalf("jobs = %v with %d distinct IDs, want ≤ 6 jobs", jobs, len(ids))
	}
	if sum := m("resd_completed_total") + m("resd_cache_hits_total") + m("resd_coalesced_total"); sum != 48 {
		t.Fatalf("completed+hits+coalesced = %v, want 48 submissions", sum)
	}
	shards := 0
	for _, s := range snap {
		if s.Name == "resd_shard_queue_depth" {
			shards++
		}
	}
	if m("resd_programs") != 2 || shards != 2 {
		t.Fatalf("programs = %v, shard series = %d, want 2 shards", m("resd_programs"), shards)
	}
}

// TestBucketsDedupAcrossManifestations checks the service-level payoff of
// root-cause bucketing: distinct dumps (different schedules, same bug)
// land in one bucket.
func TestBucketsDedupAcrossManifestations(t *testing.T) {
	svc, progID, dumps := testService(t, Config{ShardWorkers: 2})
	defer svc.Shutdown(context.Background())
	for _, d := range dumps[:3] {
		job, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: d})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Wait(context.Background(), job.ID); err != nil {
			t.Fatal(err)
		}
	}
	bs := svc.Buckets()
	total := 0
	for _, b := range bs {
		total += b.Count
	}
	if total != 3 {
		t.Fatalf("buckets = %+v, want 3 jobs bucketed", bs)
	}
	if len(bs) != 1 {
		t.Logf("note: %d buckets for one bug (suffix fallback can split); largest has %d", len(bs), bs[0].Count)
	}
}

func waitStatus(t *testing.T, svc *Service, id string, want Status) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := svc.Job(id)
		if ok && (job.Status == want || job.Status.Terminal()) {
			if job.Status != want {
				t.Fatalf("job %s = %v, want %v", id, job.Status, want)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
}

// TestRetryTransientFailure is the retry policy's contract: an analysis
// that fails transiently is re-queued with backoff and eventually
// completes, observable in the retried counter and the job's Retries.
func TestRetryTransientFailure(t *testing.T) {
	svc, progID, dumps := testService(t, Config{
		MaxRetries:   3,
		RetryBackoff: time.Millisecond,
		analyzeHook: func(attempt int) error {
			if attempt < 2 {
				return errors.New("transient resource exhaustion")
			}
			return nil // third attempt: let the real analysis run
		},
	})
	defer svc.Shutdown(context.Background())

	job, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone || len(done.Report) == 0 {
		t.Fatalf("job = %+v, want done after retries", done)
	}
	if done.Retries != 2 {
		t.Fatalf("retries = %d, want 2", done.Retries)
	}
	if done.Error != "" {
		t.Fatalf("successful retry left error %q on the job", done.Error)
	}
	m := metrics(t, svc)
	if m("resd_jobs_retried_total") != 2 || m("resd_failed_total") != 0 || m("resd_completed_total") != 1 {
		t.Fatalf("metrics = retried %v failed %v completed %v, want retried=2 failed=0 completed=1",
			m("resd_jobs_retried_total"), m("resd_failed_total"), m("resd_completed_total"))
	}
}

// TestRetryExhaustion: a persistently failing analysis fails for good
// once MaxRetries is spent.
func TestRetryExhaustion(t *testing.T) {
	svc, progID, dumps := testService(t, Config{
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
		analyzeHook:  func(int) error { return errors.New("permanent breakage") },
	})
	defer svc.Shutdown(context.Background())

	job, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusFailed || done.Error != "permanent breakage" {
		t.Fatalf("job = %+v, want failed with the analysis error", done)
	}
	if done.Retries != 2 {
		t.Fatalf("retries = %d, want MaxRetries(2)", done.Retries)
	}
	m := metrics(t, svc)
	if m("resd_jobs_retried_total") != 2 || m("resd_failed_total") != 1 {
		t.Fatalf("metrics = retried %v failed %v, want retried=2 failed=1", m("resd_jobs_retried_total"), m("resd_failed_total"))
	}
}

// TestShutdownCancelsRetryBackoff: a job waiting out a retry backoff is
// on a timer, not a queue — Shutdown must terminalize it instead of
// abandoning the timer and leaving its waiters hanging.
func TestShutdownCancelsRetryBackoff(t *testing.T) {
	svc, progID, dumps := testService(t, Config{
		MaxRetries:   5,
		RetryBackoff: time.Hour, // would fire long after the test is gone
		analyzeHook:  func(int) error { return errors.New("always failing") },
	})
	job, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, _ := svc.Job(job.ID)
		if j.Retries >= 1 && j.Status == StatusQueued {
			break // in backoff
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never entered retry backoff: %+v", j)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v; a backed-off retry must not stall the drain", err)
	}
	got, ok := svc.Job(job.ID)
	if !ok || got.Status != StatusCanceled {
		t.Fatalf("backed-off job after shutdown = %+v, ok=%v; want canceled", got, ok)
	}
	if _, err := svc.Wait(context.Background(), job.ID); err != nil {
		t.Fatalf("Wait on the canceled job = %v, want immediate return", err)
	}
}

// TestPerRequestOverrides: overridden analysis options are part of the
// cache identity — the same dump under two option sets is two jobs with
// two store entries, while overrides equal to the daemon's configuration
// share the daemon's cache key.
func TestPerRequestOverrides(t *testing.T) {
	svc, progID, dumps := testService(t, Config{ShardWorkers: 2})
	defer svc.Shutdown(context.Background())

	base, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if base, err = svc.Wait(context.Background(), base.ID); err != nil || base.Status != StatusDone {
		t.Fatalf("base job = %+v, err = %v", base, err)
	}

	// A different depth is a different tuple: fresh analysis, own entry.
	over, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0], Options: &SubmitOverrides{MaxDepth: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if over.ID == base.ID {
		t.Fatal("override did not move the cache key")
	}
	if over.Cached {
		t.Fatalf("override submission = %+v, want fresh analysis", over)
	}
	if over, err = svc.Wait(context.Background(), over.ID); err != nil || over.Status != StatusDone {
		t.Fatalf("override job = %+v, err = %v", over, err)
	}
	if st := svc.Store().Stats(); st.Puts != 2 {
		t.Fatalf("store puts = %d, want 2 distinct cache entries", st.Puts)
	}

	// Resubmitting under the same overrides hits the override's entry.
	again, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0], Options: &SubmitOverrides{MaxDepth: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.ID != over.ID || !bytes.Equal(again.Report, over.Report) {
		t.Fatalf("override resubmission = %+v, want cached byte-identical", again)
	}

	// Overrides that spell out the daemon's own configuration are the
	// daemon's tuple — no cache split.
	same, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0], Options: &SubmitOverrides{MaxDepth: 14}})
	if err != nil {
		t.Fatal(err)
	}
	if same.ID != base.ID || !same.Cached {
		t.Fatalf("identity override = %+v, want the base job's cache entry", same)
	}
}

// TestSubmitBatchCoalesces: one batch call ingests many dumps, coalesces
// intra-batch duplicates, and isolates per-item failures.
func TestSubmitBatchCoalesces(t *testing.T) {
	svc, progID, dumps := testService(t, Config{ShardWorkers: 2, QueueDepth: 16})
	defer svc.Shutdown(context.Background())

	items, err := svc.SubmitBatch(BatchSubmitRequest{ProgramID: progID,
		Dumps: [][]byte{dumps[0], dumps[1], dumps[0], []byte("garbage")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Fatalf("items = %d, want 4 (positional)", len(items))
	}
	if !items[2].Duplicate || items[2].Job.ID != items[0].Job.ID {
		t.Fatalf("intra-batch duplicate not coalesced: %+v vs %+v", items[2], items[0])
	}
	if items[3].Error == "" || items[3].Job.ID != "" {
		t.Fatalf("bad dump item = %+v, want per-item error", items[3])
	}
	for _, i := range []int{0, 1} {
		job, err := svc.Wait(context.Background(), items[i].Job.ID)
		if err != nil || job.Status != StatusDone {
			t.Fatalf("batch item %d = %+v, err = %v", i, job, err)
		}
	}
	m := metrics(t, svc)
	if m("resd_submitted_total") != 2 || m("resd_cache_misses_total") != 2 {
		t.Fatalf("metrics = %v submitted / %v misses, want 2 submissions (duplicate pre-coalesced)", m("resd_submitted_total"), m("resd_cache_misses_total"))
	}
}

// TestJournalRestart is the durability acceptance: job history, bucket
// membership, and program registrations survive a restart via the
// journal, and the restored jobs' reports resolve byte-identical from
// the store's disk tier.
func TestJournalRestart(t *testing.T) {
	bug := workload.RaceCounter()
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
			Analysis:     AnalysisConfig{MaxDepth: 12, MaxNodes: 2000},
			ShardWorkers: 2,
			Store:        st,
			Journal:      j,
		}), j
	}
	svc, j := newNode()
	progID, err := svc.RegisterSource(bug.Name, bug.Source)
	if err != nil {
		t.Fatal(err)
	}
	dumps := failingDumps(t, bug, 2)
	var jobs []Job
	for _, db := range dumps {
		job, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: db})
		if err != nil {
			t.Fatal(err)
		}
		if job, err = svc.Wait(context.Background(), job.ID); err != nil || job.Status != StatusDone {
			t.Fatalf("job = %+v, err = %v", job, err)
		}
		jobs = append(jobs, job)
	}
	buckets := svc.Buckets()
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Restart: same store directory, same journal.
	svc2, j2 := newNode()
	defer func() {
		svc2.Shutdown(context.Background())
		j2.Close()
	}()
	m := metrics(t, svc2)
	if m("resd_programs") != 1 {
		t.Fatalf("programs after restart = %v, want the journaled registration back", m("resd_programs"))
	}
	if m("resd_journal_replayed") == 0 {
		t.Fatal("nothing replayed from the journal")
	}
	for _, want := range jobs {
		got, ok := svc2.Job(want.ID)
		if !ok || got.Status != StatusDone || !got.Cached {
			t.Fatalf("restored job = %+v, ok=%v; want store-backed done", got, ok)
		}
		if !bytes.Equal(got.Report, want.Report) {
			t.Fatal("restored report differs from the original")
		}
		if got.Bucket != want.Bucket {
			t.Fatalf("restored bucket = %q, want %q", got.Bucket, want.Bucket)
		}
	}
	after := svc2.Buckets()
	if len(after) != len(buckets) {
		t.Fatalf("buckets after restart = %+v, want %+v", after, buckets)
	}
	for i := range after {
		if after[i].Key != buckets[i].Key || after[i].Count != buckets[i].Count {
			t.Fatalf("bucket %d = %+v, want %+v", i, after[i], buckets[i])
		}
	}
	// Resubmission of a restored tuple is a cache hit, not a re-analysis.
	again, err := svc2.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || !bytes.Equal(again.Report, jobs[0].Report) {
		t.Fatalf("resubmit after restart = %+v, want cached original report", again)
	}
}

// TestJournalCompaction: the live tail is bounded — past the threshold
// the journal collapses into one snapshot, and replay from the compacted
// form restores the same state.
func TestJournalCompaction(t *testing.T) {
	bug := workload.RaceCounter()
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{
		Analysis:            AnalysisConfig{MaxDepth: 12, MaxNodes: 2000},
		ShardWorkers:        2,
		Journal:             j,
		JournalCompactEvery: 3,
	})
	progID, err := svc.RegisterSource(bug.Name, bug.Source)
	if err != nil {
		t.Fatal(err)
	}
	dumps := failingDumps(t, bug, 4)
	for _, db := range dumps {
		job, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: db})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Wait(context.Background(), job.ID); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.Compactions == 0 {
		t.Fatalf("journal stats = %+v, want a compaction after 5 appends with threshold 3", st)
	}
	entries, err := j.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || entries[0].T != "snapshot" {
		t.Fatalf("compacted journal starts with %+v, want a snapshot entry", entries)
	}
	svc.Shutdown(context.Background())
	j.Close()

	j2, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	svc2 := New(Config{Analysis: AnalysisConfig{MaxDepth: 12, MaxNodes: 2000}, Journal: j2})
	defer svc2.Shutdown(context.Background())
	// The store was memory-only, so reports are gone — but the history
	// (IDs, buckets, program registration) replays from the snapshot.
	if m := metrics(t, svc2); m("resd_programs") != 1 || m("resd_buckets") == 0 {
		t.Fatalf("metrics after compacted replay = %v programs / %v buckets, want program and buckets back", m("resd_programs"), m("resd_buckets"))
	}
}

// TestSubmitErrors covers the rejection paths.
func TestSubmitErrors(t *testing.T) {
	svc, progID, dumps := testService(t, Config{})
	defer svc.Shutdown(context.Background())
	if _, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: []byte("garbage")}); !errors.Is(err, ErrBadDump) {
		t.Fatalf("garbage dump: %v, want ErrBadDump", err)
	}
	if _, err := svc.Submit(SubmitRequest{ProgramID: "no-such-program",
		Dump: dumps[0]}); !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("bad program id: %v, want ErrUnknownProgram", err)
	}
	other := fmt.Sprintf("%064x", 42)
	if _, err := svc.Submit(SubmitRequest{ProgramID: other, Dump: dumps[0]}); !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("unregistered program: %v, want ErrUnknownProgram", err)
	}
	if _, err := svc.Wait(context.Background(), "nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: %v, want ErrUnknownJob", err)
	}
	// Request validation and program resolution are the HTTP layer's too.
	for name, err := range map[string]error{
		"no dump":    errOf(svc.Submit(SubmitRequest{ProgramID: progID})),
		"no program": errOf(svc.Submit(SubmitRequest{Dump: dumps[0]})),
		"no patch":   errOf(svc.SubmitFix(SubmitFixRequest{ProgramID: progID, Dump: dumps[0]})),
		"ragged batch": errOf(svc.SubmitBatch(BatchSubmitRequest{ProgramID: progID,
			Dumps: dumps[:2], Evidence: [][]byte{nil}})),
	} {
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: %v, want ErrBadRequest", name, err)
		}
	}
	if _, err := svc.Submit(SubmitRequest{ProgramSource: "not assembly", Dump: dumps[0]}); !errors.Is(err, ErrBadSource) {
		t.Fatalf("bad source: %v, want ErrBadSource", err)
	}
}

// hugeImageDump is a 30-byte dump that decodes: no threads, and a memory
// image claiming 2^28 words in one zero run.
func hugeImageDump(t testing.TB) []byte {
	t.Helper()
	b, err := (&coredump.Dump{Mem: mem.NewImage(1)}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// A one-word zero image encodes as its size, 1, then one zero run of 1.
	tail := []byte{1, 0, 1}
	if !bytes.HasSuffix(b, tail) {
		t.Fatalf("one-word image does not end the dump as % x: % x", tail, b)
	}
	huge := binary.AppendUvarint(nil, 1<<28)
	b = append(append(b[:len(b)-len(tail)], huge...), 0)
	return append(b, huge...)
}

// TestSubmitRejectsForeignImageSize: a dump whose memory image is not
// the program's size is a bad dump, rejected before the claimed image is
// allocated, so 30 bytes cannot cost 2 GiB.
func TestSubmitRejectsForeignImageSize(t *testing.T) {
	svc, progID, _ := testService(t, Config{})
	defer svc.Shutdown(context.Background())
	dump := hugeImageDump(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadDump) {
		t.Fatalf("%d-byte dump claiming 2^28 words: %v, want ErrBadDump", len(dump), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting it allocated %d bytes, want < 1 MiB", grew)
	}
}

// errOf returns a call's error, dropping its value.
func errOf[T any](_ T, err error) error { return err }

// TestJobEvictionByCap verifies the jobs-map bound: a long-lived service
// evicts the oldest-finished terminal records past MaxJobs, counts the
// evictions, and still answers a resubmission of an evicted tuple from
// the content-addressed store.
func TestJobEvictionByCap(t *testing.T) {
	bug := workload.RaceCounter()
	svc := New(Config{
		Analysis:     AnalysisConfig{MaxDepth: 12, MaxNodes: 2000},
		ShardWorkers: 2,
		MaxJobs:      2,
	})
	defer svc.Shutdown(context.Background())
	progID, err := svc.RegisterProgram(bug.Name, bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	dumps := failingDumps(t, bug, 4)

	var first Job
	for i, db := range dumps {
		job, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: db})
		if err != nil {
			t.Fatal(err)
		}
		if job, err = svc.Wait(context.Background(), job.ID); err != nil || job.Status != StatusDone {
			t.Fatalf("dump %d: job = %+v, err = %v", i, job, err)
		}
		if i == 0 {
			first = job
		}
	}

	m := metrics(t, svc)
	if m("resd_jobs") > 2 {
		t.Fatalf("jobs retained = %v, want <= MaxJobs(2)", m("resd_jobs"))
	}
	if m("resd_jobs_evicted_total") < 2 {
		t.Fatalf("evictions = %v, want >= 2", m("resd_jobs_evicted_total"))
	}
	// A result poll for the evicted job still resolves: the slim
	// tombstone routes it to the store-cached report.
	got, ok := svc.Job(first.ID)
	if !ok || got.Status != StatusDone || !got.Cached || len(got.Report) == 0 {
		t.Fatalf("evicted job lookup = %+v, ok=%v; want cached done with report", got, ok)
	}
	if !bytes.Equal(got.Report, first.Report) {
		t.Fatal("evicted job lookup returned a different report")
	}
	if w, err := svc.Wait(context.Background(), first.ID); err != nil || w.Status != StatusDone {
		t.Fatalf("Wait on evicted job = %+v, %v", w, err)
	}
	// The evicted tuple's answer lives on in the store.
	again, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Status != StatusDone || len(again.Report) == 0 {
		t.Fatalf("resubmit after eviction = %+v, want cached done", again)
	}
	if !bytes.Equal(again.Report, first.Report) {
		t.Fatal("cached report differs from the original analysis")
	}
	// Evict+resubmit cycles must not duplicate bucket membership.
	for _, b := range svc.Buckets() {
		seen := map[string]bool{}
		for _, id := range b.JobIDs {
			if seen[id] {
				t.Fatalf("bucket %s lists job %s twice after evict+resubmit", b.Key, id)
			}
			seen[id] = true
		}
	}
}

// TestJobEvictionByTTL verifies the retention bound: terminal records
// older than JobRetention are swept on the next submission.
func TestJobEvictionByTTL(t *testing.T) {
	bug := workload.RaceCounter()
	svc := New(Config{
		Analysis:     AnalysisConfig{MaxDepth: 12, MaxNodes: 2000},
		ShardWorkers: 2,
		JobRetention: time.Nanosecond,
	})
	defer svc.Shutdown(context.Background())
	progID, err := svc.RegisterProgram(bug.Name, bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	dumps := failingDumps(t, bug, 2)

	job, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(context.Background(), job.ID); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond) // let the record age past the TTL
	if _, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dumps[1]}); err != nil {
		t.Fatal(err)
	}
	m := metrics(t, svc)
	if m("resd_jobs_evicted_total") < 1 {
		t.Fatalf("evictions = %v, want >= 1 after TTL sweep", m("resd_jobs_evicted_total"))
	}
	if m("resd_jobs") >= 2 {
		t.Fatalf("jobs retained = %v, want the expired record swept", m("resd_jobs"))
	}
	// Evicted-but-complete jobs still answer result polls via the store.
	if got, ok := svc.Job(job.ID); !ok || !got.Cached || got.Status != StatusDone {
		t.Fatalf("evicted job poll = %+v, ok=%v", got, ok)
	}
}
