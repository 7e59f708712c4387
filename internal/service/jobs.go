package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"res"
	"res/internal/obs"
	"res/internal/store"
)

// doneRec is one entry of the eviction queue. The timestamp doubles as a
// validity check: a record requeued after finishing gets a new entry, and
// the stale one is skipped when popped.
type doneRec struct {
	id string
	at time.Time
}

// evictedRec is what survives a complete job's eviction: enough to serve
// a result poll from the store and keep the job's identity.
type evictedRec struct {
	key         store.Key
	program     string
	programName string
	bucket      string
	mode        string
	finished    time.Time
	seq         uint64
}

// evictedRef is one entry of the tombstone trim queue.
type evictedRef struct {
	id  string
	seq uint64
}

// insertEvictedLocked installs (or replaces) a tombstone and queues its
// trim entry. Caller holds s.mu.
func (s *Service) insertEvictedLocked(id string, rec evictedRec) {
	if s.evicted == nil {
		s.evicted = make(map[string]evictedRec)
	}
	s.evictedSeq++
	rec.seq = s.evictedSeq
	s.evicted[id] = rec
	s.evictedOrder = append(s.evictedOrder, evictedRef{id: id, seq: rec.seq})
	for len(s.evictedOrder) > s.maxEvictedIndex() {
		ref := s.evictedOrder[0]
		s.evictedOrder = s.evictedOrder[1:]
		// Only the entry matching the live tombstone's sequence may trim
		// it; entries staled by resurrection or replay supersede are
		// skipped.
		if live, ok := s.evicted[ref.id]; ok && live.seq == ref.seq {
			delete(s.evicted, ref.id)
		}
	}
}

// bounded reports whether any job-record bound is configured.
func (s *Service) bounded() bool {
	return s.cfg.MaxJobs > 0 || s.cfg.JobRetention > 0
}

// recordDoneLocked queues a terminal job for eviction. Caller holds s.mu.
func (s *Service) recordDoneLocked(js *jobState) {
	if !s.bounded() {
		return // no bounds: don't accumulate an eviction queue for nothing
	}
	s.doneOrder = append(s.doneOrder, doneRec{id: js.job.ID, at: js.job.FinishedAt})
	s.evictJobsLocked()
}

// maxEvictedIndex bounds the slim tombstone index.
func (s *Service) maxEvictedIndex() int {
	if s.cfg.MaxJobs > 0 {
		return 16 * s.cfg.MaxJobs
	}
	return 1 << 18
}

// evictJobsLocked enforces the job-record bounds. A complete job leaves a
// slim tombstone behind so result polls keep resolving via the store;
// failed/canceled/partial records (whose answer was never durable) just
// vanish. Caller holds s.mu.
func (s *Service) evictJobsLocked() {
	now := time.Now()
	for len(s.doneOrder) > 0 {
		ent := s.doneOrder[0]
		expired := s.cfg.JobRetention > 0 && now.Sub(ent.at) > s.cfg.JobRetention
		over := s.cfg.MaxJobs > 0 && len(s.jobs) > s.cfg.MaxJobs
		if !expired && !over {
			return
		}
		s.doneOrder = s.doneOrder[1:]
		js, ok := s.jobs[ent.id]
		if !ok || !js.job.Status.Terminal() || !js.job.FinishedAt.Equal(ent.at) {
			continue // evicted already, or requeued: a newer entry governs it
		}
		delete(s.jobs, ent.id)
		s.jobsEvicted.Add(1)
		if js.job.Status == StatusDone && !js.job.Partial {
			s.insertEvictedLocked(ent.id, evictedRec{
				key: js.key, program: js.job.Program, programName: js.job.ProgramName,
				bucket: js.job.Bucket, mode: js.job.Mode, finished: js.job.FinishedAt,
			})
		}
	}
}

// resurrectEvictedLocked clears the eviction tombstone and the bucket
// membership the evicted record left behind, so a resubmission that
// recreates the job (from the store, or by re-analysis after an LRU
// miss) does not append the same ID to its bucket twice. Caller holds
// s.mu.
func (s *Service) resurrectEvictedLocked(id string) {
	rec, ok := s.evicted[id]
	if !ok {
		return
	}
	delete(s.evicted, id) // the stale order entry is skipped at trim time
	s.removeBucketLocked(rec.bucket, id)
}

// evictedJob serves a result lookup for an evicted complete job from the
// store. Returns false when the ID is unknown or the store no longer
// holds the report.
func (s *Service) evictedJob(id string) (Job, bool) {
	s.mu.Lock()
	rec, ok := s.evicted[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, false
	}
	rep, ok := s.store.Get(rec.key)
	if !ok {
		return Job{}, false
	}
	return Job{
		ID: id, Program: rec.program, ProgramName: rec.programName,
		Status: StatusDone, Cached: true, Report: rep,
		Bucket: rec.bucket, Mode: rec.mode, FinishedAt: rec.finished,
	}, true
}

// TraceFragments returns every span fragment this node recorded for a
// job: the request-scoped fragment (snapshotted live, so an in-flight
// job already shows its submit and queue spans) followed by the
// finished analysis's span tree. Empty for cache hits and replayed or
// evicted records — this node did no traced work for those.
func (s *Service) TraceFragments(id string) []*obs.TraceData {
	s.mu.Lock()
	js, ok := s.jobs[id]
	var reqTrace *obs.Trace
	var analysis *obs.TraceData
	if ok {
		reqTrace = js.reqTrace
		analysis = js.trace
	}
	s.mu.Unlock()
	var frags []*obs.TraceData
	if f := reqTrace.Finish(); f != nil {
		frags = append(frags, f)
	}
	if analysis != nil {
		frags = append(frags, analysis)
	}
	return frags
}

func (s *Service) addBucketLocked(bucket, id string) {
	if bucket == "" {
		return
	}
	s.buckets[bucket] = append(s.buckets[bucket], id)
}

// removeBucketLocked drops one job from a bucket (requeue path). Caller
// holds s.mu.
func (s *Service) removeBucketLocked(bucket, id string) {
	if bucket == "" {
		return
	}
	ids := s.buckets[bucket]
	for i, v := range ids {
		if v == id {
			s.buckets[bucket] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(s.buckets[bucket]) == 0 {
		delete(s.buckets, bucket)
	}
}

// Job returns a snapshot of the job with the given ID. A complete job
// whose in-memory record was evicted by the MaxJobs/JobRetention bounds
// is reconstructed from the result store, so result polls survive
// eviction.
func (s *Service) Job(id string) (Job, bool) {
	s.mu.Lock()
	js, ok := s.jobs[id]
	var snap Job
	if ok {
		snap = js.job
	}
	s.mu.Unlock()
	if !ok {
		return s.evictedJob(id)
	}
	return snap, true
}

// Wait blocks until the job reaches a terminal status (or ctx ends) and
// returns its final snapshot.
func (s *Service) Wait(ctx context.Context, id string) (Job, error) {
	s.mu.Lock()
	js, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		if job, ok := s.evictedJob(id); ok {
			return job, nil
		}
		return Job{}, ErrUnknownJob
	}
	select {
	case <-js.done:
		s.mu.Lock()
		defer s.mu.Unlock()
		return js.job, nil
	case <-ctx.Done():
		return Job{}, ctx.Err()
	}
}

// Bucket is one crash-dedup group: every member job shares a root-cause
// (or suffix) signature, so a bucket is one underlying defect.
type Bucket struct {
	Key    string   `json:"key"`
	Count  int      `json:"count"`
	JobIDs []string `json:"job_ids"`
}

// Buckets returns the dedup groups, largest first (ties by key).
func (s *Service) Buckets() []Bucket {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Bucket, 0, len(s.buckets))
	for k, ids := range s.buckets {
		out = append(out, Bucket{Key: k, Count: len(ids), JobIDs: append([]string(nil), ids...)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// bucketFromReport derives a job's dedup key from its report bytes —
// the bytes a fresh analysis stores and a cache hit reads back — so both
// paths put a tuple in the same bucket. It reads the report's exported
// schema, res.ReportJSON. The strongest signal is the root-cause key
// (stable across manifestations of one bug — the paper's fix for WER
// over-splitting); with no cause, a synthesized suffix's schedule shape
// still groups alike failures; with neither, the verdict is all there
// is.
func bucketFromReport(app string, rep []byte) string {
	// Service-mode reports (fix verdicts, minimal repros) carry a "kind"
	// discriminator that analysis reports never do; they describe work on
	// a failure, not a failure, so they never join crash buckets.
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(rep, &probe); err == nil && probe.Kind != "" {
		return ""
	}
	var parsed res.ReportJSON
	if err := json.Unmarshal(rep, &parsed); err != nil {
		return app + "|unparseable-report"
	}
	if parsed.Cause != nil && parsed.Cause.Key != "" {
		return app + "|" + parsed.Cause.Key
	}
	if parsed.Suffix != nil && len(parsed.Suffix.Steps) > 0 {
		h := sha256.New()
		for _, st := range parsed.Suffix.Steps {
			fmt.Fprintln(h, st)
		}
		return app + "|suffix:" + hex.EncodeToString(h.Sum(nil)[:6])
	}
	if parsed.Verdict == "hardware-suspect" {
		return app + "|hardware-suspect"
	}
	return app + "|no-cause"
}
