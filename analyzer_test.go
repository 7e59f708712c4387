package res_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"res"
	"res/internal/coredump"
	"res/internal/workload"
)

// collectDumps produces n distinct failing dumps of the bug's program by
// sweeping scheduler seeds (the triage-corpus recipe).
func collectDumps(t testing.TB, bug *workload.Bug, n int) []*res.Dump {
	t.Helper()
	p := bug.Program()
	var dumps []*res.Dump
	for _, base := range bug.Configs {
		for s := int64(0); s < 300 && len(dumps) < n; s++ {
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
			dumps = append(dumps, d)
		}
		if len(dumps) >= n {
			break
		}
	}
	if len(dumps) < n {
		t.Fatalf("only %d/%d dumps manifested for %s", len(dumps), n, bug.Name)
	}
	return dumps
}

// TestAnalyzeCancellationMidSearch cancels the context from inside the
// event stream — after several backward steps have already run — and
// checks that Analyze returns promptly with ctx.Err() and the partial
// report accumulated so far.
func TestAnalyzeCancellationMidSearch(t *testing.T) {
	bug := workload.DistanceChain(8)
	p := bug.Program()
	d, _, err := bug.FindFailure(2)
	if err != nil {
		t.Fatal(err)
	}
	a := res.NewAnalyzer(p, res.WithMaxDepth(12))

	// Reference run: the full search effort.
	full, err := a.Analyze(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if full.Report.Stats.Attempts < 6 {
		t.Fatalf("reference search too small to cancel mid-way: %+v", full.Report.Stats)
	}

	const cancelAfter = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var nodes int32
	r, err := a.Analyze(ctx, d, res.WithObserver(func(ev res.Event) {
		if ev.Kind == res.EventNode && atomic.AddInt32(&nodes, 1) == cancelAfter {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r == nil || r.Report == nil {
		t.Fatal("canceled Analyze returned no partial result")
	}
	if !r.Partial {
		t.Error("partial result not marked Partial")
	}
	got := r.Report.Stats.Attempts
	if got < cancelAfter {
		t.Errorf("cancellation before mid-search: %d attempts, want >= %d", got, cancelAfter)
	}
	if got >= full.Report.Stats.Attempts {
		t.Errorf("cancellation did not cut the search: %d attempts vs full %d",
			got, full.Report.Stats.Attempts)
	}
}

// TestAnalyzeDeadline runs a search too large for its deadline and checks
// the call returns promptly (not at budget exhaustion) with a partial
// report.
func TestAnalyzeDeadline(t *testing.T) {
	bug := workload.AmbiguousDispatch(10)
	p := bug.Program()
	d, _, err := bug.FindFailure(2)
	if err != nil {
		t.Fatal(err)
	}
	a := res.NewAnalyzer(p, res.WithMaxDepth(34), res.WithMaxNodes(100000))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	r, err := a.Analyze(ctx, d)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v (elapsed %v), want context.DeadlineExceeded", err, elapsed)
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline ignored: analysis ran %v", elapsed)
	}
	if r == nil || r.Report == nil || !r.Partial {
		t.Fatalf("no partial result on deadline: %+v", r)
	}
}

// TestAnalyzeBatchDeterminism checks AnalyzeBatch's contract: with
// parallelism > 1 the results are identical to sequential runs.
func TestAnalyzeBatchDeterminism(t *testing.T) {
	bug := workload.RaceCounter()
	dumps := collectDumps(t, bug, 4)
	a := res.NewAnalyzer(bug.Program(), res.WithMaxDepth(16), res.WithMaxNodes(4000))

	batch, err := a.AnalyzeBatch(context.Background(), dumps, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dumps {
		seq, err := a.Analyze(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		b := batch[i]
		if b == nil {
			t.Fatalf("batch result %d missing", i)
		}
		if (b.Cause == nil) != (seq.Cause == nil) {
			t.Fatalf("dump %d: batch cause %v vs sequential %v", i, b.Cause, seq.Cause)
		}
		if b.Cause != nil && b.Cause.Key() != seq.Cause.Key() {
			t.Errorf("dump %d: batch cause %v != sequential %v", i, b.Cause, seq.Cause)
		}
		if b.Report.Stats != seq.Report.Stats {
			t.Errorf("dump %d: batch stats %+v != sequential %+v", i, b.Report.Stats, seq.Report.Stats)
		}
	}
}

// TestAnalyzeBatchParallelismClamp checks the documented parallelism
// contract: <= 0 means GOMAXPROCS (the batch still completes, never
// deadlocks or serializes into nothing), oversized pools clamp to the
// batch size, and an empty batch is a no-op.
func TestAnalyzeBatchParallelismClamp(t *testing.T) {
	bug := workload.RaceCounter()
	dumps := collectDumps(t, bug, 2)
	a := res.NewAnalyzer(bug.Program(), res.WithMaxDepth(14), res.WithMaxNodes(3000))
	ctx := context.Background()

	for _, par := range []int{0, -1, -100, 1000} {
		results, err := a.AnalyzeBatch(ctx, dumps, par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(results) != len(dumps) {
			t.Fatalf("parallelism %d: %d results for %d dumps", par, len(results), len(dumps))
		}
		for i, r := range results {
			if r == nil || r.Report == nil {
				t.Fatalf("parallelism %d: result %d missing", par, i)
			}
		}
	}
	for _, par := range []int{-1, 0, 1, 8} {
		results, err := a.AnalyzeBatch(ctx, nil, par)
		if err != nil {
			t.Fatalf("empty batch with parallelism %d: %v", par, err)
		}
		if results == nil || len(results) != 0 {
			t.Fatalf("empty batch with parallelism %d: results = %v, want empty non-nil", par, results)
		}
	}
}

// TestAnalyzerConcurrentUse is the concurrency contract: one Analyzer,
// several goroutines analyzing distinct dumps at once (run under
// -race), some of which are canceled mid-search through the event
// stream while the rest run to completion.
func TestAnalyzerConcurrentUse(t *testing.T) {
	bug := workload.RaceCounter()
	dumps := collectDumps(t, bug, 6)
	a := res.NewAnalyzer(bug.Program(), res.WithMaxDepth(16), res.WithMaxNodes(4000))

	// Reference answers, sequentially.
	want := make([]string, len(dumps))
	for i, d := range dumps {
		r, err := a.Analyze(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cause == nil {
			t.Fatalf("reference analysis %d found no cause", i)
		}
		want[i] = r.Cause.Key()
	}

	var wg sync.WaitGroup
	errC := make(chan error, len(dumps))
	for i, d := range dumps {
		// Goroutines 0 and 1 get canceled mid-search; the rest complete.
		cancelMidway := i < 2
		wg.Add(1)
		go func(i int, d *res.Dump) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var opts []res.Option
			var nodes int32
			if cancelMidway {
				opts = append(opts, res.WithObserver(func(ev res.Event) {
					if ev.Kind == res.EventNode && atomic.AddInt32(&nodes, 1) == 2 {
						cancel()
					}
				}))
			}
			r, err := a.Analyze(ctx, d, opts...)
			if cancelMidway {
				if !errors.Is(err, context.Canceled) {
					errC <- fmt.Errorf("goroutine %d: err = %v, want Canceled", i, err)
					return
				}
				if r == nil || r.Report == nil || r.Report.Stats.Attempts < 2 {
					errC <- fmt.Errorf("goroutine %d: no mid-search partial report: %+v", i, r)
				}
				return
			}
			if err != nil {
				errC <- fmt.Errorf("goroutine %d: %v", i, err)
				return
			}
			if r.Cause == nil || r.Cause.Key() != want[i] {
				errC <- fmt.Errorf("goroutine %d: cause %v, want key %s", i, r.Cause, want[i])
			}
		}(i, d)
	}
	wg.Wait()
	close(errC)
	for err := range errC {
		t.Error(err)
	}
}

// TestAnalyzeBatchCancellation: a canceled batch keeps the results it
// produced and fails the rest with the context error.
func TestAnalyzeBatchCancellation(t *testing.T) {
	bug := workload.RaceCounter()
	dumps := collectDumps(t, bug, 3)
	a := res.NewAnalyzer(bug.Program(), res.WithMaxDepth(16), res.WithMaxNodes(4000))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the batch starts: every dump fails promptly
	results, err := a.AnalyzeBatch(ctx, dumps, 2)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if len(results) != len(dumps) {
		t.Fatalf("results length %d, want %d", len(results), len(dumps))
	}
}

// TestAnalyzeBatchEmptyAndDefaults covers the edge parameters: an empty
// batch and parallelism < 1 (GOMAXPROCS).
func TestAnalyzeBatchEmptyAndDefaults(t *testing.T) {
	bug := workload.Fig1()
	p := bug.Program()
	a := res.NewAnalyzer(p, res.WithMaxDepth(12))
	if results, err := a.AnalyzeBatch(context.Background(), nil, 4); err != nil || len(results) != 0 {
		t.Fatalf("empty batch: %v %v", results, err)
	}
	d, _, err := bug.FindFailure(4)
	if err != nil {
		t.Fatal(err)
	}
	results, err := a.AnalyzeBatch(context.Background(), []*res.Dump{d}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Cause == nil {
		t.Fatalf("default-parallelism batch: %+v", results)
	}
}

// TestJSONReportDeterminism: two analyses of the same dump render to the
// same machine-readable report (elapsed aside).
func TestJSONReportDeterminism(t *testing.T) {
	bug := workload.TaintedOverflow()
	p := bug.Program()
	d, _, err := bug.FindFailure(4)
	if err != nil {
		t.Fatal(err)
	}
	a := res.NewAnalyzer(p, res.WithMaxDepth(10))
	r1, err := a.Analyze(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Analyze(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	j1, j2 := r1.JSONReport(), r2.JSONReport()
	j1.ElapsedMS, j2.ElapsedMS = 0, 0
	if !reflect.DeepEqual(j1, j2) {
		t.Errorf("reports diverge:\n%+v\n%+v", j1, j2)
	}
	if j1.Verdict != "root-cause" {
		t.Errorf("verdict = %q", j1.Verdict)
	}
	if j1.Exploitable == nil || !*j1.Exploitable {
		t.Error("tainted overflow not marked exploitable in JSON report")
	}
	if !j1.ReplayMatches {
		t.Error("replay_matches false for a faithful analysis")
	}
}

// TestObserverEventStream sanity-checks the event sequence: a depth
// advance precedes depth-2 suffixes, suffix events carry increasing
// depth, and stats snapshots are monotone in attempts.
func TestObserverEventStream(t *testing.T) {
	bug := workload.DistanceChain(4)
	p := bug.Program()
	d, _, err := bug.FindFailure(2)
	if err != nil {
		t.Fatal(err)
	}
	var events []res.Event
	_, err = res.NewAnalyzer(p, res.WithMaxDepth(8)).Analyze(context.Background(), d,
		res.WithObserver(func(ev res.Event) { events = append(events, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events observed")
	}
	var sawDepth, sawSuffix bool
	lastAttempts := 0
	for _, ev := range events {
		if ev.Stats.Attempts < lastAttempts {
			t.Errorf("stats went backward: %d -> %d", lastAttempts, ev.Stats.Attempts)
		}
		lastAttempts = ev.Stats.Attempts
		switch ev.Kind {
		case res.EventDepth:
			sawDepth = true
		case res.EventSuffix:
			sawSuffix = true
			if !sawDepth && ev.Depth > 1 {
				t.Error("deep suffix before any depth advance")
			}
		}
	}
	if !sawDepth || !sawSuffix {
		t.Errorf("event stream incomplete: depth=%v suffix=%v", sawDepth, sawSuffix)
	}
}
