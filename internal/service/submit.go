package service

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"res/internal/checkpoint"
	"res/internal/evidence"
	"res/internal/fault"
	"res/internal/fixverify"
	"res/internal/obs"
	"res/internal/store"
	"res/internal/wire"
)

// effectiveAnalysis resolves per-request overrides against the daemon's
// configuration and returns the matching options fingerprint — the
// overridden knobs are part of the cache identity, so results computed
// under different options never collide.
func (s *Service) effectiveAnalysis(o *SubmitOverrides) (AnalysisConfig, store.Fingerprint) {
	if o.empty() {
		return s.cfg.Analysis, s.optFP
	}
	eff := s.cfg.Analysis
	if o.MaxDepth > 0 {
		eff.MaxDepth = o.MaxDepth
	}
	if o.BeamWidth > 0 {
		eff.BeamWidth = o.BeamWidth
	}
	return eff, eff.Fingerprint()
}

// optionsDesc folds the attachments' content fingerprints into the
// canonical analysis-options description: evidence and checkpoints change
// what the search may conclude, so they are part of the result's cache
// identity. ckBytes are the checkpoint ring's wire bytes as received;
// they decoded, so they are canonical and their hash is the ring's
// fingerprint. Mode-specific suffixes (fix verification's patch
// fingerprint, minimization's mode marker) are appended by the caller
// before hashing.
func optionsDesc(eff AnalysisConfig, ev evidence.Set, ckBytes []byte) string {
	desc := eff.Canonical()
	if fp := ev.Fingerprint(); fp != "" {
		desc += " evidence=" + fp
	}
	if len(ckBytes) > 0 {
		desc += " checkpoints=" + wire.Fingerprint(ckBytes)
	}
	return desc
}

// noteEvidenceLocked counts an accepted submission's attachments.
// Caller holds s.mu.
func (s *Service) noteEvidenceLocked(ev evidence.Set, ck *checkpoint.Ring) {
	if ck != nil && !ck.Empty() {
		s.checkpointAttached.Add(1)
	}
	if len(ev) == 0 {
		return
	}
	s.evidenceAttached.Add(1)
	if s.evidenceKinds == nil {
		s.evidenceKinds = make(map[string]uint64)
	}
	for _, src := range ev {
		s.evidenceKinds[src.Kind()]++
	}
}

// admit validates a submit request and resolves the program it names.
// The first failed check — the first non-empty entry of checks, then a
// missing program — is an ErrBadRequest, reported before anything is
// registered. Resolution takes program_id as given, or registers
// program_source on first sight (content-keyed, so resubmitting the same
// source is free).
func (s *Service) admit(id, name, source string, checks ...string) (string, error) {
	if id == "" && source == "" {
		checks = append(checks, "program_id or program_source is required")
	}
	for _, c := range checks {
		if c != "" {
			return "", fmt.Errorf("%w: %s", ErrBadRequest, c)
		}
	}
	if id != "" {
		return id, nil
	}
	return s.RegisterSource(name, source)
}

// required is admit's check that a request field is present.
func required[T any](v []T, field string) string {
	if len(v) == 0 {
		return field + " is required"
	}
	return ""
}

// positional is admit's check that a batch attachment list is absent or
// one entry per dump.
func positional(v, dumps [][]byte, field string) string {
	if len(v) != 0 && len(v) != len(dumps) {
		return field + " must be positional with dumps"
	}
	return ""
}

// Submit ingests one failure tuple: a serialized coredump with its
// optional evidence and checkpoint-ring attachments, for the program the
// request names. The returned Job is a snapshot: for a cache hit it is
// already done (Cached set, Report populated from the store); for fresh
// work it is queued and the caller polls Job/Wait by ID. A duplicate of
// an in-flight tuple coalesces onto the existing job. A full shard queue
// returns ErrQueueFull — the caller's cue to back off.
//
// Everything that changes what the search may conclude is part of the
// job's cache identity: the option overrides, and the content
// fingerprints of the evidence set and the checkpoint ring. A ring bounds
// the analysis: the search anchors on the latest checkpoint that
// reproduces the failure, so the suffix depth is limited by the
// checkpoint interval instead of the execution length.
//
// req.Trace carries the request's trace ID (minted here when empty, so
// the service is also a valid ingest edge) and the remote span the
// request fragment hangs under — the router's proxy span when the
// submission was forwarded. Every path stamps the job's TraceID; fresh
// work also opens the request-scoped span fragment that the trace
// stitcher later merges with the engine's span tree.
func (s *Service) Submit(req SubmitRequest) (Job, error) {
	id, err := s.admit(req.ProgramID, req.ProgramName, req.ProgramSource, required(req.Dump, "dump"))
	if err != nil {
		return Job{}, err
	}
	return s.submitTuple(id, req.Dump, req.Evidence, req.Checkpoints, req.Options, req.Trace, submitExtras{})
}

// retainAttachments stores the attachments' canonical wire bytes on the
// job record. They survive finish() — which drops the decoded forms —
// so MinimizeJob can rebuild a finished job's exact tuple later. The
// checkpoint bytes are the ones the submission carried, which decoded
// and so are canonical.
func retainAttachments(js *jobState, ev evidence.Set, ckBytes []byte) {
	if len(ev) > 0 {
		js.evidenceBytes = ev.Encode()
	}
	js.checkpointBytes = ckBytes
}

// submitExtras carries the mode-specific parts of a submission through
// the shared ingest flow: empty for a plain analysis, the decoded patch
// and program source for a fix verification, the mode marker alone for a
// minimization. Everything in it is folded into the job's cache identity
// by submitTuple.
type submitExtras struct {
	mode  string
	patch *fixverify.Patch
	src   string
}

// submitTuple is the shared ingest flow behind Submit, SubmitBatch,
// SubmitFix, and MinimizeJob: canonicalize and dedup the tuple,
// coalesce onto in-flight work, serve complete answers from the store,
// or queue fresh work on the program's shard.
func (s *Service) submitTuple(programID string, dumpBytes, evidenceBytes, checkpointBytes []byte, o *SubmitOverrides, tc obs.TraceContext, ex submitExtras) (Job, error) {
	progFP, err := store.ParseFingerprint(programID)
	if err != nil {
		return Job{}, ErrUnknownProgram
	}
	s.mu.Lock()
	draining := s.draining
	sh, known := s.shards[programID]
	s.mu.Unlock()
	if draining {
		// Draining wins over unknown-program: a drained node may simply
		// have missed the registration broadcast, and 503 tells the client
		// (or the routing proxy) to retry elsewhere instead of giving up
		// on a 404.
		return Job{}, ErrDraining
	}
	if !known {
		return Job{}, ErrUnknownProgram
	}
	// Decoding against the program's layout rejects a dump whose claimed
	// memory size differs before that memory is allocated.
	dumpFP, canon, d, err := store.CanonicalizeDumpFor(dumpBytes, sh.prog.Layout.MemSize)
	if err != nil {
		return Job{}, fmt.Errorf("%w: %v", ErrBadDump, err)
	}
	// Attachments degrade, the dump does not: a fleet shipping a real
	// crash must not lose the analysis because a sidecar payload (LBR
	// ring, checkpoint ring, error-log breadcrumbs) was torn in transit
	// or on disk. A corrupt attachment is dropped with a warning on the
	// job and the dump analyzed plain — cached under the plain tuple's
	// key, which is exactly the result the degraded submission computes.
	evidenceBytes = s.cfg.Faults.Corrupt(fault.SeamDecode, fault.KindAttachmentCorrupt, evidenceBytes)
	checkpointBytes = s.cfg.Faults.Corrupt(fault.SeamDecode, fault.KindAttachmentCorrupt, checkpointBytes)
	var warnings []string
	evSet, err := evidence.Decode(evidenceBytes)
	if err != nil {
		warnings = append(warnings, fmt.Sprintf("service: bad evidence: %v; analyzed without evidence", err))
		evSet = nil
	}
	ring, err := checkpoint.Decode(checkpointBytes)
	if err != nil {
		warnings = append(warnings, fmt.Sprintf("service: bad checkpoints: %v; analyzed without checkpoint anchoring", err))
		ring, checkpointBytes = nil, nil
	}
	if len(warnings) > 0 {
		s.attachmentsDegraded.Add(uint64(len(warnings)))
		slog.Warn("degraded submission: corrupt attachment dropped",
			"trace_id", tc.TraceID, "program", programID,
			"warnings", strings.Join(warnings, "; "))
	}
	if o.empty() {
		o = nil
	}
	eff, optFP := s.effectiveAnalysis(o)
	if len(evSet) > 0 || !ring.Empty() || ex.mode != "" {
		desc := optionsDesc(eff, evSet, checkpointBytes)
		if ex.patch != nil {
			// The patch is part of the verdict's cache identity: the same
			// tuple under a different candidate fix is a different job.
			desc += " patch=" + ex.patch.Fingerprint()
		}
		if ex.mode != "" {
			desc += " mode=" + ex.mode
		}
		optFP = store.OptionsFingerprint(desc)
	}
	key := store.ResultKey(progFP, dumpFP, optFP)
	id := key.ID()
	if tc.TraceID == "" {
		// This process is the ingest edge: mint the request's trace ID
		// here so even single-node deployments get grep-able identity.
		tc.TraceID = obs.NewTraceID()
	}

	// Probe the store before taking the service lock (the disk tier does
	// IO). A concurrent duplicate submission is serialized below.
	cachedRep, haveCached := s.store.Get(key)

	s.mu.Lock()
	s.evictJobsLocked() // amortized TTL/cap sweep, uniform across all submit paths
	if s.draining {
		s.mu.Unlock()
		return Job{}, ErrDraining
	}
	sh, ok := s.shards[programID]
	if !ok {
		s.mu.Unlock()
		return Job{}, ErrUnknownProgram
	}
	var stale *jobState
	if js, ok := s.jobs[id]; ok {
		// Same tuple already known. In flight: coalesce onto it. Finished
		// with a complete answer: serve it as a cache hit. Finished
		// without one (failed, or cut to a partial result by a drain or
		// job timeout): fall through and requeue — a partial answer must
		// never become the tuple's answer of record.
		snap := js.job
		// The returned snapshot carries THIS submission's degradation
		// warnings (the stored record keeps its own): the submitter whose
		// attachment was dropped must hear about it even on a cache hit.
		snap.Warnings = append(warnings, snap.Warnings...)
		// Likewise this submission's trace identity: the stored record
		// keeps the trace that caused the analysis (whose fragments the
		// trace endpoint stitches), but the response belongs to the
		// caller's request.
		if snap.TraceID == "" {
			snap.TraceID = tc.TraceID
		}
		switch {
		case !snap.Status.Terminal():
			sh.submitted.Add(1)
			s.coalesced.Add(1)
			s.noteEvidenceLocked(evSet, ring)
			s.mu.Unlock()
			return snap, nil
		case snap.Status == StatusDone && !snap.Partial:
			sh.submitted.Add(1)
			s.cacheHits.Add(1)
			sh.cached.Add(1)
			s.noteEvidenceLocked(evSet, ring)
			snap.Cached = true
			if haveCached {
				snap.Report = cachedRep
			}
			s.mu.Unlock()
			if !haveCached {
				// The LRU evicted this result; the job record still holds
				// the complete bytes, so repopulate the store.
				s.store.Put(key, snap.Report)
			}
			return snap, nil
		}
		// The stale record (and its bucket membership, if the partial
		// result earned one) is replaced below, only once the requeue is
		// accepted by the shard queue.
		stale = js
	}
	now := time.Now()
	if haveCached {
		// First sighting in this process — or a stale partial/failed
		// record being superseded — and the store (possibly its disk
		// tier, written by a prior run or another daemon) already has the
		// complete result.
		s.resurrectEvictedLocked(id)
		if stale != nil {
			s.removeBucketLocked(stale.job.Bucket, id)
		}
		s.cacheHits.Add(1)
		sh.cached.Add(1)
		sh.submitted.Add(1)
		s.noteEvidenceLocked(evSet, ring)
		js := &jobState{
			job: Job{
				ID: id, Program: programID, ProgramName: sh.name,
				TraceID: tc.TraceID,
				Status:  StatusDone, Cached: true, Report: cachedRep,
				Bucket:       bucketFromReport(sh.name, cachedRep),
				Evidence:     evSet.Kinds(),
				Checkpointed: !ring.Empty(),
				Warnings:     warnings,
				Mode:         ex.mode,
				SubmittedAt:  now, FinishedAt: now,
			},
			key:  key,
			mode: ex.mode,
			done: make(chan struct{}),
		}
		retainAttachments(js, evSet, checkpointBytes)
		close(js.done)
		s.jobs[id] = js
		s.addBucketLocked(js.job.Bucket, id)
		s.recordDoneLocked(js)
		rec := journalJobRecord(js)
		s.mu.Unlock()
		s.journalAppend(journalEntry{T: "job", Job: rec})
		return js.job, nil
	}
	// Fresh work: open the request-scoped trace fragment. Its root spans
	// submit-to-terminal; the analysis span tree links under the
	// "analyze" child, and when the submission was routed here the whole
	// fragment hangs under the router's proxy span via tc.ParentRef.
	reqTrace := obs.NewTraceCtx("request", tc, s.node())
	reqTrace.Root().SetStr("job", id)
	reqTrace.Root().SetStr("program", sh.name)
	js := &jobState{
		job: Job{
			ID: id, Program: programID, ProgramName: sh.name,
			TraceID: tc.TraceID,
			Status:  StatusQueued, Evidence: evSet.Kinds(),
			Checkpointed: !ring.Empty(), Warnings: warnings,
			Mode:        ex.mode,
			SubmittedAt: now,
		},
		key:         key,
		dump:        d,
		overrides:   o,
		evidence:    evSet,
		checkpoints: ring,
		mode:        ex.mode,
		patch:       ex.patch,
		src:         ex.src,
		reqTrace:    reqTrace,
		done:        make(chan struct{}),
	}
	retainAttachments(js, evSet, checkpointBytes)
	select {
	case sh.queue <- js:
	default:
		s.rejected.Add(1)
		s.mu.Unlock()
		return Job{}, ErrQueueFull
	}
	s.resurrectEvictedLocked(id)
	if stale != nil {
		s.removeBucketLocked(stale.job.Bucket, id)
	}
	s.cacheMisses.Add(1)
	sh.submitted.Add(1)
	s.noteEvidenceLocked(evSet, ring)
	s.jobs[id] = js
	snap := js.job
	s.mu.Unlock()
	if ex.mode != "" {
		slog.Info("job accepted", "trace_id", tc.TraceID, "job_id", id, "program", sh.name, "mode", ex.mode)
	} else {
		slog.Info("job accepted", "trace_id", tc.TraceID, "job_id", id, "program", sh.name)
	}

	// Persist the dump blob as the service's ingest archive — only when
	// the store has a disk tier. In a memory-only store the blob would
	// just crowd result entries out of the LRU (nothing in-process ever
	// reads a dump blob back).
	if s.store.Persistent() {
		s.store.Put(store.DumpKey(dumpFP), canon)
	}
	return snap, nil
}

// BatchItem is one dump's outcome within a batch submission. Exactly one
// of Job/Error is meaningful; Duplicate marks a dump that was
// byte-identical to an earlier dump in the same batch and was coalesced
// onto its job without a second ingest.
type BatchItem struct {
	Job       Job    `json:"job"`
	Duplicate bool   `json:"duplicate,omitempty"`
	Error     string `json:"error,omitempty"`
}

// SubmitBatch ingests many dumps for one program in a single call,
// amortizing per-request overhead for fleets shipping dump bursts.
// Results are positional: out[i] is req.Dumps[i]'s outcome, and
// req.Evidence and req.Checkpoints — when present — are positional with
// the dumps (entries may be empty). Byte-identical (dump, evidence,
// checkpoints) triples within the batch are coalesced before ingest
// (marked Duplicate); triples that canonicalize to the same bytes
// additionally coalesce via the regular in-flight/cache machinery.
// Per-item failures (bad dump, full queue) are reported in place — one
// poisoned dump does not fail the rest of the batch; only a malformed
// request or an unregistrable program source is an error. Every fresh
// job records its fragment under the one request trace, so a routed
// batch reconstructs as one tree.
func (s *Service) SubmitBatch(req BatchSubmitRequest) ([]BatchItem, error) {
	programID, err := s.admit(req.ProgramID, req.ProgramName, req.ProgramSource,
		required(req.Dumps, "dumps"),
		positional(req.Evidence, req.Dumps, "evidence"),
		positional(req.Checkpoints, req.Dumps, "checkpoints"))
	if err != nil {
		return nil, err
	}
	tc := req.Trace
	if tc.TraceID == "" {
		tc.TraceID = obs.NewTraceID()
	}
	items := make([]BatchItem, len(req.Dumps))
	seen := make(map[[sha256.Size]byte]int, len(req.Dumps))
	for i, db := range req.Dumps {
		var evb, ckb []byte
		if len(req.Evidence) > 0 {
			evb = req.Evidence[i]
		}
		if len(req.Checkpoints) > 0 {
			ckb = req.Checkpoints[i]
		}
		// Length-prefix the dump and evidence so the (dump, evidence,
		// checkpoints) triple encoding is injective — a bare separator
		// byte could be aliased by the payloads themselves.
		h := sha256.New()
		var plen [8]byte
		binary.BigEndian.PutUint64(plen[:], uint64(len(db)))
		h.Write(plen[:])
		h.Write(db)
		binary.BigEndian.PutUint64(plen[:], uint64(len(evb)))
		h.Write(plen[:])
		h.Write(evb)
		h.Write(ckb)
		var hk [sha256.Size]byte
		h.Sum(hk[:0])
		if j, ok := seen[hk]; ok {
			items[i] = items[j]
			items[i].Duplicate = true
			continue
		}
		seen[hk] = i
		job, err := s.submitTuple(programID, db, evb, ckb, req.Options, tc, submitExtras{})
		items[i].Job = job
		if err != nil {
			items[i].Error = err.Error()
		}
	}
	return items, nil
}
