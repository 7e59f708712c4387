package service

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"os"
	"runtime/pprof"
	"time"

	"res"
	"res/internal/fault"
	"res/internal/obs"
)

// retryRec pairs a backed-off job with its timer and shard.
type retryRec struct {
	sh    *shard
	timer *time.Timer
}

// worker drains one shard's queue until Shutdown closes it.
func (s *Service) worker(sh *shard) {
	defer s.wg.Done()
	for js := range sh.queue {
		s.run(sh, js)
	}
}

// maybeRetry re-queues a failed analysis under the retry policy: up to
// Config.MaxRetries attempts with exponential backoff. Returns false —
// the failure is final — when retries are off, exhausted, or the service
// is draining.
func (s *Service) maybeRetry(sh *shard, js *jobState, cause error) bool {
	if s.cfg.MaxRetries <= 0 || s.baseCtx.Err() != nil {
		return false
	}
	s.mu.Lock()
	if s.draining || js.retries >= s.cfg.MaxRetries {
		s.mu.Unlock()
		return false
	}
	js.retries++
	js.job.Retries = js.retries
	js.job.Status = StatusQueued
	if cause != nil {
		// Visible to pollers while the retry waits out its backoff; a
		// successful retry clears it.
		js.job.Error = cause.Error()
	}
	s.retried.Add(1)
	backoff := s.cfg.RetryBackoff
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	delay := jitterDelay(backoff << (js.retries - 1))
	// Register the timer before arming it so Shutdown can find the job:
	// a backed-off job is neither on a queue nor in a worker, and an
	// abandoned timer would leave its waiters hanging past the drain.
	if s.pendingRetries == nil {
		s.pendingRetries = make(map[*jobState]*retryRec)
	}
	rec := &retryRec{sh: sh}
	s.pendingRetries[js] = rec
	rec.timer = time.AfterFunc(delay, func() { s.requeueRetry(sh, js) })
	s.mu.Unlock()
	return true
}

// jitterDelay spreads a retry delay uniformly over [d/2, d). Exponential
// backoff alone synchronizes retries: every job failed by the same
// transient outage retries on the same schedule and the herd re-arrives
// together. Jitter decorrelates them while keeping the mean at 3d/4.
func jitterDelay(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int64N(int64(d-half)))
}

// requeueRetry puts a backed-off job back on its shard's queue. By the
// time the timer fires the service may be draining (the queue is closed:
// sending would panic) or the queue may be full; either way the job
// finishes terminally instead of retrying into the void.
func (s *Service) requeueRetry(sh *shard, js *jobState) {
	s.mu.Lock()
	if _, ok := s.pendingRetries[js]; !ok {
		// Shutdown already terminalized this job between the timer firing
		// and this callback taking the lock.
		s.mu.Unlock()
		return
	}
	delete(s.pendingRetries, js)
	if s.draining {
		s.mu.Unlock()
		s.finish(sh, js, func(j *Job) {
			j.Status = StatusCanceled
			j.Error = "canceled during drain"
		})
		return
	}
	select {
	case sh.queue <- js:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.finish(sh, js, func(j *Job) {
			j.Status = StatusFailed
			j.Error = "retry abandoned: analysis queue full"
		})
	}
}

// run executes one queued analysis and records its outcome.
func (s *Service) run(sh *shard, js *jobState) {
	if s.baseCtx.Err() != nil {
		// The drain deadline fired while this job sat queued.
		s.finish(sh, js, func(j *Job) {
			j.Status = StatusCanceled
			j.Error = "canceled during drain"
		})
		return
	}
	if js.mode == ModeMinimize {
		s.runMinimize(sh, js)
		return
	}
	start := time.Now()
	s.mu.Lock()
	js.job.Status = StatusRunning
	submitted := js.job.SubmittedAt
	s.mu.Unlock()
	s.histQueueWait.Observe(start.Sub(submitted).Seconds())
	// The request fragment's root accumulates per-attempt children, so a
	// retried job's trace shows every attempt.
	reqRoot := js.reqTrace.Root()
	analyzeSpan := reqRoot.Child("analyze")
	analyzeSpan.SetInt("queue_wait_us", start.Sub(submitted).Microseconds())
	analyzeSpan.SetInt("attempt", int64(js.retries))
	defer analyzeSpan.End()

	if s.cfg.BeforeAnalyze != nil {
		s.cfg.BeforeAnalyze()
	}
	if s.cfg.analyzeHook != nil {
		if herr := s.cfg.analyzeHook(js.retries); herr != nil {
			if s.maybeRetry(sh, js, herr) {
				return
			}
			s.finish(sh, js, func(j *Job) {
				j.Status = StatusFailed
				j.Error = herr.Error()
			})
			return
		}
	}
	ctx := s.baseCtx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	// Injected solver stall: the worker sits on the job as a wedged
	// search would, but still honors cancellation — a stall must never
	// outlive the drain deadline or the job timeout.
	if d := s.cfg.Faults.Delay(fault.SeamSolver, fault.KindStall); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	var aopts []res.Option
	if !js.overrides.empty() {
		eff, _ := s.effectiveAnalysis(js.overrides)
		aopts = append(aopts, res.WithMaxDepth(eff.MaxDepth), res.WithBeamWidth(eff.BeamWidth))
	}
	if len(js.evidence) > 0 {
		aopts = append(aopts, res.WithEvidence(js.evidence...))
	}
	if js.checkpoints != nil {
		aopts = append(aopts, res.WithCheckpoints(js.checkpoints))
	}
	// Tracing is always on inside the service: the span tree feeds the
	// trace endpoint, the per-depth solver and bisect-replay histograms,
	// and the slow-analysis log. The report itself stays byte-identical —
	// the trace is detached before rendering below.
	aopts = append(aopts, res.WithTrace(true))
	// Bridge the session's search events to any progress watchers.
	aopts = append(aopts, res.WithObserver(func(ev res.Event) { s.publish(js, ev) }))
	var r *res.Result
	var err error
	// The pprof labels let a CPU profile attribute samples to the job and
	// program under analysis (worker goroutines spawned by the search
	// inherit them; the engine refines depth_band as the frontier deepens).
	pprof.Do(ctx, pprof.Labels("job", js.job.ID, "program", sh.name), func(ctx context.Context) {
		r, err = sh.analyzer.Analyze(ctx, js.dump, aopts...)
	})
	if r == nil {
		if s.baseCtx.Err() == nil && s.maybeRetry(sh, js, err) {
			return
		}
		s.finish(sh, js, func(j *Job) {
			j.Status = StatusFailed
			if err != nil {
				j.Error = err.Error()
			}
		})
		return
	}
	// Detach the trace before rendering: stored and cached reports must
	// stay byte-deterministic, and the span tree (wall-clock timings) is
	// served separately via GET /v1/jobs/{id}/trace. Stamp the engine's
	// fragment with the request's trace identity so the stitcher hangs
	// it under this attempt's analyze span.
	tr := r.Trace
	r.Trace = nil
	if tr != nil {
		tr.TraceID = js.job.TraceID
		tr.Node = s.node()
		tr.ParentRef = analyzeSpan.Ref()
	}
	rep, jerr := r.JSON()
	if jerr != nil {
		s.finish(sh, js, func(j *Job) {
			j.Status = StatusFailed
			j.Error = jerr.Error()
		})
		return
	}
	s.histAnalysis.Observe(r.Elapsed.Seconds())
	s.observeTrace(tr)
	slog.Info("analysis complete",
		"trace_id", js.job.TraceID, "job_id", js.job.ID, "program", sh.name,
		"elapsed", r.Elapsed.Round(time.Millisecond).String())
	if s.cfg.SlowThreshold > 0 && r.Elapsed >= s.cfg.SlowThreshold {
		slog.Warn("slow analysis",
			"trace_id", js.job.TraceID, "job_id", js.job.ID, "program", sh.name,
			"elapsed", r.Elapsed.Round(time.Millisecond).String(),
			"summary", tr.Summary())
		// A slow analysis is an incident worth a post-mortem: dump the
		// flight recorder so the surrounding context (peers marked down,
		// repair churn, other slow spans) is captured alongside it.
		s.cfg.FlightRec.Dump(os.Stderr, "slow-analysis job "+js.job.ID)
	}
	s.mu.Lock()
	js.trace = tr
	s.mu.Unlock()
	if js.mode == ModeFixVerify {
		// The analysis only reproduced the failure; the verdict — the
		// job's actual report — comes from replaying the synthesized
		// suffix through the patched program.
		s.completeFixVerify(sh, js, r)
		return
	}
	// Only complete, deterministic results enter the store: a partial
	// (drained or timed-out) report depends on where the cut fell and
	// must not be served to future submitters as the answer.
	if err == nil && !r.Partial {
		s.store.Put(js.key, rep)
	}
	if r.CheckpointAnchor != nil {
		s.checkpointAnchored.Add(1)
	}
	bucket := bucketFromReport(sh.name, rep)
	s.finish(sh, js, func(j *Job) {
		j.Status = StatusDone
		j.Partial = r.Partial
		j.Report = rep
		j.Bucket = bucket
		j.Error = "" // clear any transient error surfaced between retries
	})
}

// observeTrace feeds the histograms that derive from the span tree
// rather than from in-line timers: per-depth-band solver time from the
// "depth" spans and bisect replay time from the "verify" probes.
func (s *Service) observeTrace(tr *obs.TraceData) {
	if tr == nil {
		return
	}
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "depth":
			if ns := sp.Int("solver_ns"); ns > 0 {
				if h := s.histSolver[obs.DepthBand(int(sp.Int("depth")))]; h != nil {
					h.Observe(float64(ns) / 1e9)
				}
			}
		case "verify":
			s.histBisect.Observe(float64(sp.Int("replay_ns")) / 1e9)
		}
	}
}

// finish applies the terminal mutation, updates counters and buckets,
// journals the outcome, releases waiters, and ends any progress streams
// with a terminal status event.
func (s *Service) finish(sh *shard, js *jobState, mut func(*Job)) {
	s.mu.Lock()
	mut(&js.job)
	js.job.FinishedAt = time.Now()
	// The decoded dump (a full memory image) and the compiled evidence are
	// only needed for analysis; dropping them here keeps the long-lived
	// jobs map lightweight.
	js.dump = nil
	js.evidence = nil
	js.checkpoints = nil
	switch js.job.Status {
	case StatusDone:
		s.completed.Add(1)
		s.addBucketLocked(js.job.Bucket, js.job.ID)
	case StatusFailed:
		s.failed.Add(1)
	case StatusCanceled:
		s.canceled.Add(1)
	}
	s.recordDoneLocked(js)
	rec := journalJobRecord(js)
	subs := js.subs
	js.subs = nil
	status := js.job.Status
	elapsed := js.job.FinishedAt.Sub(js.job.SubmittedAt)
	s.mu.Unlock()
	if root := js.reqTrace.Root(); root != nil {
		root.SetStr("status", string(status))
		root.End()
	}
	s.cfg.FlightRec.Record(obs.FlightEvent{
		Kind: "span", TraceID: js.job.TraceID, JobID: js.job.ID,
		Msg: fmt.Sprintf("request %s in %s (program %s)", status, elapsed.Round(time.Millisecond), js.job.ProgramName),
	})
	s.journalAppend(journalEntry{T: "job", Job: rec})
	close(js.done)
	// Detaching the subscribers above made this goroutine each channel's
	// only sender, so the terminal status line — the one event the stream
	// contract guarantees — can always be delivered: a buffer still full
	// of undrained progress events sacrifices one of them for it.
	final := ProgressEvent{Kind: "status", Status: status}
	for _, sub := range subs {
		if n := sub.dropped.Load(); n > 0 {
			// Best-effort gap marker before the stream closes; a full
			// buffer keeps the loss visible via resd_events_dropped_total.
			select {
			case sub.ch <- ProgressEvent{Kind: "dropped", Dropped: n}:
				sub.dropped.Store(0)
			default:
			}
		}
		select {
		case sub.ch <- final:
		default:
			select {
			case <-sub.ch:
			default:
			}
			sub.ch <- final
		}
		close(sub.ch)
	}
}
