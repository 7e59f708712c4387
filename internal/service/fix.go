package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"res"
	"res/internal/fixverify"
	"res/internal/store"
)

// Job modes beyond plain analysis. The mode is part of the job's cache
// identity (folded into the options fingerprint), so a fix verdict or a
// minimal repro can never collide with the tuple's analysis report.
const (
	// ModeFixVerify jobs verify a candidate fix: the analysis reproduces
	// the failure, then the synthesized suffix is replayed through the
	// patched program and the report is a fix verdict.
	ModeFixVerify = "fixverify"
	// ModeMinimize jobs delta-debug a finished analysis's tuple down to a
	// minimal repro that preserves the byte-identical root-cause key.
	ModeMinimize = "minimize"
)

// Sentinel errors of the fix-verification and minimization endpoints.
var (
	// ErrBadPatch rejects bytes that parse as neither the canonical
	// RESPATCH1 wire form nor the patch text format.
	ErrBadPatch = errors.New("service: bad patch")
	// ErrNoSource rejects a fix verification for a program whose assembly
	// source the service does not hold (patches are applied to source;
	// labels key the operations).
	ErrNoSource = errors.New("service: program source unavailable")
	// ErrMinimizeUnavailable rejects a minimization whose input tuple can
	// no longer be reconstructed — the job is unfinished, was evicted, or
	// its dump/attachments did not survive (memory-only store, restart).
	ErrMinimizeUnavailable = errors.New("service: minimize unavailable")
)

// fixverifyReport is the deterministic report body of a ModeFixVerify
// job: the verdict plus the cause the reproduced failure analyzed to.
// The "kind" discriminator keeps it out of crash buckets and lets
// clients tell it from an analysis report.
type fixverifyReport struct {
	Kind     string `json:"kind"` // always "fixverify"
	CauseKey string `json:"cause_key,omitempty"`
	*fixverify.Result
}

// minimizeReport is the deterministic report body of a ModeMinimize job:
// the minimization's summary plus the canonical RESMINR1 repro bytes
// (base64 in JSON) and their content fingerprint.
type minimizeReport struct {
	Kind        string `json:"kind"` // always "minimal-repro"
	CauseKey    string `json:"cause_key"`
	OrigSources int    `json:"orig_sources"`
	MinSources  int    `json:"min_sources"`
	MaxDepth    int    `json:"max_depth"`
	MaxNodes    int    `json:"max_nodes"`
	SuffixDepth int    `json:"suffix_depth"`
	Runs        int    `json:"runs"`
	Reductions  int    `json:"reductions"`
	Fingerprint string `json:"fingerprint"`
	Repro       []byte `json:"repro"`
}

// SubmitFix submits a candidate fix for verification against one failing
// dump: the service reproduces the failure (or serves the reproduction
// from cache), replays the synthesized suffix through the patched
// program, and reports a fixed / not-fixed / inconclusive verdict as the
// job's report. req.Patch is accepted in either patch form (RESPATCH1
// wire bytes or the text format). req.ProgramSource may be "" when the
// program was registered by source (RegisterSource); otherwise it must
// be the assembly source the program was built from. Verdicts are cached
// by the (program, dump, options, patch) tuple: resubmitting the same fix
// for the same failure is a cache hit, and distinct patches get distinct
// jobs.
func (s *Service) SubmitFix(req SubmitFixRequest) (Job, error) {
	programID, err := s.admit(req.ProgramID, req.ProgramName, req.ProgramSource,
		required(req.Dump, "dump"), required(req.Patch, "patch"))
	if err != nil {
		return Job{}, err
	}
	p, err := fixverify.DecodeAny(req.Patch)
	if err != nil {
		return Job{}, fmt.Errorf("%w: %v", ErrBadPatch, err)
	}
	source := req.ProgramSource
	if source == "" {
		s.mu.Lock()
		rec, ok := s.sources[programID]
		s.mu.Unlock()
		if !ok {
			return Job{}, fmt.Errorf("%w: program %s was not registered by source; supply the program source", ErrNoSource, programID)
		}
		source = rec.Source
	} else {
		// A caller-supplied source must actually be the registered
		// program's source: a verdict computed against other code would be
		// confidently wrong.
		sp, aerr := res.Assemble(source)
		if aerr != nil {
			return Job{}, fmt.Errorf("%w: source does not assemble: %v", ErrNoSource, aerr)
		}
		fp, ferr := store.ProgramFingerprint(sp)
		if ferr != nil {
			return Job{}, fmt.Errorf("%w: %v", ErrNoSource, ferr)
		}
		if fp.String() != programID {
			return Job{}, fmt.Errorf("%w: source assembles to program %s, not %s", ErrNoSource, fp, programID)
		}
	}
	return s.submitTuple(programID, req.Dump, nil, nil, req.Options, req.Trace, submitExtras{mode: ModeFixVerify, patch: p, src: source})
}

// MinimizeJob delta-debugs a finished analysis job's input tuple: the
// retained attachments and the archived dump are resubmitted as a
// ModeMinimize job whose report is a minimal repro — the smallest
// evidence subset and tightest budgets that still analyze to the
// byte-identical root-cause key. Requires the job to be complete
// (StatusDone, not partial) and its dump to be recoverable from the
// store's ingest archive, which needs a persistent store (resd
// -cache-dir). Empty req.Options inherit the job's own overrides.
func (s *Service) MinimizeJob(id string, req MinimizeRequest) (Job, error) {
	o := req.Options
	s.mu.Lock()
	js, ok := s.jobs[id]
	var base Job
	var key store.Key
	var evb, ckb []byte
	if ok {
		base = js.job
		key = js.key
		evb = js.evidenceBytes
		ckb = js.checkpointBytes
		if o.empty() {
			o = js.overrides
		}
	}
	_, evicted := s.evicted[id]
	s.mu.Unlock()
	if !ok {
		if evicted {
			// Journal-replayed complete jobs also land here: the slim
			// record has the report, not the input tuple.
			return Job{}, fmt.Errorf("%w: job %s's input tuple is no longer held in memory; resubmit the dump and minimize the fresh job", ErrMinimizeUnavailable, id)
		}
		return Job{}, ErrUnknownJob
	}
	if base.Mode != "" {
		return Job{}, fmt.Errorf("%w: job %s is a %s job, not an analysis", ErrMinimizeUnavailable, id, base.Mode)
	}
	if base.Status != StatusDone || base.Partial {
		return Job{}, fmt.Errorf("%w: job %s has no complete analysis to minimize (status %s)", ErrMinimizeUnavailable, id, base.Status)
	}
	if len(base.Evidence) > 0 && evb == nil || base.Checkpointed && ckb == nil {
		return Job{}, fmt.Errorf("%w: job %s's attachments were not retained by this process; resubmit the tuple and minimize the fresh job", ErrMinimizeUnavailable, id)
	}
	dumpBytes, have := s.store.Get(store.DumpKey(key.Dump))
	if !have {
		return Job{}, fmt.Errorf("%w: the ingest archive does not hold job %s's dump (run resd with -cache-dir to archive dumps)", ErrMinimizeUnavailable, id)
	}
	return s.submitTuple(base.Program, dumpBytes, evb, ckb, o, req.Trace, submitExtras{mode: ModeMinimize})
}

// runMinimize executes one queued ModeMinimize job. No retry policy:
// minimization is deterministic, so a failure (no root cause, canceled
// context) would only repeat.
func (s *Service) runMinimize(sh *shard, js *jobState) {
	start := time.Now()
	s.mu.Lock()
	js.job.Status = StatusRunning
	submitted := js.job.SubmittedAt
	s.mu.Unlock()
	s.histQueueWait.Observe(start.Sub(submitted).Seconds())
	span := js.reqTrace.Root().Child("minimize")
	span.SetInt("queue_wait_us", start.Sub(submitted).Microseconds())
	defer span.End()
	ctx := s.baseCtx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	eff, _ := s.effectiveAnalysis(js.overrides)
	aopts := eff.options()
	if len(js.evidence) > 0 {
		aopts = append(aopts, res.WithEvidence(js.evidence...))
	}
	if js.checkpoints != nil {
		aopts = append(aopts, res.WithCheckpoints(js.checkpoints))
	}
	m, err := res.Minimize(ctx, sh.prog, js.dump, aopts...)
	if err != nil {
		s.finish(sh, js, func(j *Job) {
			j.Status = StatusFailed
			j.Error = err.Error()
		})
		return
	}
	span.SetInt("runs", int64(m.Runs))
	span.SetInt("reductions", int64(m.Reductions))
	rep, jerr := json.Marshal(minimizeReport{
		Kind:        "minimal-repro",
		CauseKey:    m.CauseKey,
		OrigSources: m.OrigSources,
		MinSources:  m.MinSources,
		MaxDepth:    m.MaxDepth,
		MaxNodes:    m.MaxNodes,
		SuffixDepth: m.SuffixDepth,
		Runs:        m.Runs,
		Reductions:  m.Reductions,
		Fingerprint: m.Fingerprint(),
		Repro:       m.Encode(),
	})
	if jerr != nil {
		s.finish(sh, js, func(j *Job) {
			j.Status = StatusFailed
			j.Error = jerr.Error()
		})
		return
	}
	s.store.Put(js.key, rep)
	s.minimizeTotal.Add(1)
	s.minimizeRuns.Add(uint64(m.Runs))
	s.minimizeReductions.Add(uint64(m.Reductions))
	slog.Info("minimization complete",
		"trace_id", js.job.TraceID, "job_id", js.job.ID, "program", sh.name,
		"cause_key", m.CauseKey, "sources", fmt.Sprintf("%d/%d", m.MinSources, m.OrigSources),
		"runs", m.Runs)
	s.finish(sh, js, func(j *Job) {
		j.Status = StatusDone
		j.Report = rep
		j.Error = ""
	})
}

// completeFixVerify turns a ModeFixVerify job's finished reproduction
// into a verdict: replay the synthesized suffix through the patched
// program and report fixed / not-fixed / inconclusive. Called by run()
// after the analysis; r is never nil.
func (s *Service) completeFixVerify(sh *shard, js *jobState, r *res.Result) {
	var fr *fixverify.Result
	switch {
	case r.Partial:
		fr = &fixverify.Result{
			Verdict:          fixverify.VerdictInconclusive,
			Reason:           "the reproduction analysis was cut short; no complete failure suffix to replay",
			PatchFingerprint: js.patch.Fingerprint(),
		}
	case r.Synthesized == nil:
		fr = &fixverify.Result{
			Verdict:          fixverify.VerdictInconclusive,
			Reason:           "the analysis synthesized no failure suffix to replay the patch against",
			PatchFingerprint: js.patch.Fingerprint(),
		}
	default:
		var err error
		fr, err = fixverify.Verify(js.src, js.patch, r.Synthesized, js.dump)
		if err != nil {
			s.finish(sh, js, func(j *Job) {
				j.Status = StatusFailed
				j.Error = err.Error()
			})
			return
		}
	}
	frep := fixverifyReport{Kind: "fixverify", Result: fr}
	if r.Cause != nil {
		frep.CauseKey = r.Cause.Key()
	}
	rep, jerr := json.Marshal(frep)
	if jerr != nil {
		s.finish(sh, js, func(j *Job) {
			j.Status = StatusFailed
			j.Error = jerr.Error()
		})
		return
	}
	// A verdict built on a partial reproduction depends on where the cut
	// fell; it is reported but never cached as the tuple's answer.
	if !r.Partial {
		s.store.Put(js.key, rep)
	}
	s.mu.Lock()
	if s.fixverifyVerdicts == nil {
		s.fixverifyVerdicts = make(map[string]uint64)
	}
	s.fixverifyVerdicts[string(fr.Verdict)]++
	s.mu.Unlock()
	slog.Info("fix verification complete",
		"trace_id", js.job.TraceID, "job_id", js.job.ID, "program", sh.name,
		"verdict", string(fr.Verdict), "patch", fr.PatchFingerprint)
	s.finish(sh, js, func(j *Job) {
		j.Status = StatusDone
		j.Partial = r.Partial
		j.Report = rep
		j.Error = ""
	})
}
