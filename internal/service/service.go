// Package service is the crash-ingestion engine behind resd: a fleet
// ships coredumps in, the service dedups them against the
// content-addressed store, shards fresh work onto per-program analysis
// pools built around reusable res.Analyzer sessions, and groups finished
// analyses into crash buckets by root-cause signature.
//
// The paper's premise is debugging failures harvested from production,
// which means the same defect arrives over and over as near-identical
// dumps. The service exploits that twice: byte-identical dumps are cache
// hits served straight from the store without touching the solver, and
// distinct dumps of the same underlying bug land in one bucket via the
// root-cause key, so a human (or an autonomous triage loop) sees one
// work item instead of a thousand reports.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"res"
	"res/internal/checkpoint"
	"res/internal/evidence"
	"res/internal/fault"
	"res/internal/fixverify"
	"res/internal/obs"
	"res/internal/store"
)

// Sentinel errors the submit methods return; the HTTP layer maps them to
// status codes (429, 503, 404, 400).
var (
	// ErrQueueFull is backpressure: the target shard's queue is at
	// capacity and the dump was rejected, not silently dropped.
	ErrQueueFull = errors.New("service: analysis queue full")
	// ErrDraining rejects work submitted after Shutdown began.
	ErrDraining = errors.New("service: draining")
	// ErrUnknownProgram rejects a dump for a program never registered.
	ErrUnknownProgram = errors.New("service: unknown program")
	// ErrUnknownJob is returned for result lookups with no such ID.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrBadDump rejects bytes that do not parse as a coredump.
	ErrBadDump = errors.New("service: bad dump")
	// ErrBadSource rejects a program source that does not assemble.
	ErrBadSource = errors.New("service: bad program source")
	// ErrBadRequest rejects a request that lacks a required field or whose
	// attachment lists are not positional with its dumps.
	ErrBadRequest = errors.New("service: bad request")
)

// AnalysisConfig is the service-wide analysis configuration. It is part
// of every result's cache identity: changing any knob changes the options
// fingerprint, so results computed under different budgets never collide
// in the store.
type AnalysisConfig struct {
	MaxDepth           int  `json:"max_depth"`
	MaxNodes           int  `json:"max_nodes"`
	BeamWidth          int  `json:"beam_width"`
	UseLBR             bool `json:"use_lbr"`
	LBRSkipConditional bool `json:"lbr_skip_conditional"`
	MatchOutputs       bool `json:"match_outputs"`
	// SearchParallelism is the candidate-level parallelism within each
	// analysis (res.WithSearchParallelism): <= 0 = automatic (the
	// machine's cores divided among the shard's workers), 1 = sequential.
	// It is deliberately NOT part of Canonical(): the engine produces
	// bit-identical results at any parallelism, so results computed under
	// different settings are interchangeable and share cache entries.
	SearchParallelism int `json:"search_parallelism"`
}

// Canonical renders every result-affecting knob in a fixed order; this
// string is what the options fingerprint hashes.
func (c AnalysisConfig) Canonical() string {
	return fmt.Sprintf("v1 depth=%d nodes=%d beam=%d lbr=%t lbrskip=%t outputs=%t",
		c.MaxDepth, c.MaxNodes, c.BeamWidth, c.UseLBR, c.LBRSkipConditional, c.MatchOutputs)
}

// Fingerprint is the options component of the store key.
func (c AnalysisConfig) Fingerprint() store.Fingerprint {
	return store.OptionsFingerprint(c.Canonical())
}

// options lowers the config to the session API's functional options.
func (c AnalysisConfig) options() []res.Option {
	opts := []res.Option{
		res.WithMaxDepth(c.MaxDepth),
		res.WithMaxNodes(c.MaxNodes),
		res.WithBeamWidth(c.BeamWidth),
		res.WithSearchParallelism(c.SearchParallelism),
	}
	if c.UseLBR {
		mode := res.LBRRecordAll
		if c.LBRSkipConditional {
			mode = res.LBRSkipConditional
		}
		opts = append(opts, res.WithLBR(mode))
	}
	if c.MatchOutputs {
		opts = append(opts, res.WithMatchOutputs())
	}
	return opts
}

// Config tunes the service.
type Config struct {
	// Analysis is the shared analysis configuration (cache identity).
	Analysis AnalysisConfig
	// QueueDepth bounds each shard's pending queue; a full queue rejects
	// with ErrQueueFull. < 1 means DefaultQueueDepth.
	QueueDepth int
	// ShardWorkers is the number of concurrent analyses per program
	// shard. < 1 means 1.
	ShardWorkers int
	// JobTimeout deadline-bounds each analysis; 0 means none. A timed-out
	// analysis still reports its partial result (marked partial, never
	// cached).
	JobTimeout time.Duration
	// Store caches results and dump blobs; nil means a default in-memory
	// store.
	Store *store.Store
	// MaxJobs caps the in-memory job records a long-lived daemon retains:
	// when the jobs map exceeds it, the oldest-finished terminal records
	// are evicted (in-flight and queued jobs are never evicted). A
	// resubmission of an evicted tuple is served from the result store as
	// a cache hit, so eviction loses history, not answers. 0 = unbounded.
	MaxJobs int
	// JobRetention additionally evicts terminal job records older than
	// this, regardless of MaxJobs. 0 = no TTL.
	JobRetention time.Duration
	// MaxRetries re-queues a failed analysis up to this many times with
	// exponential backoff (RetryBackoff, 2*RetryBackoff, 4*...), so a
	// transient failure — resource exhaustion, a crashed helper — does not
	// permanently mark the tuple failed. 0 = failures are final.
	MaxRetries int
	// RetryBackoff is the first retry's delay; each subsequent retry
	// doubles it. <= 0 means DefaultRetryBackoff.
	RetryBackoff time.Duration
	// Journal, when set, makes job history and bucket membership durable:
	// every terminal job (and every source-registered program) is appended
	// to it, and New replays it so a restarted daemon still answers result
	// polls for past jobs and lists their buckets. Open one with
	// OpenJournal; the caller closes it after Shutdown.
	Journal *Journal
	// JournalCompactEvery bounds the journal's live tail: past this many
	// entries it is compacted into a single snapshot (and mirrored into
	// the store's disk tier when one exists). 0 = DefaultJournalCompactEvery.
	JournalCompactEvery int
	// SlowThreshold, when > 0, logs a span-tree summary to the standard
	// logger for every analysis whose wall time meets it — the
	// slow-analysis log. Tracing is always on inside the service, so no
	// other configuration is needed.
	SlowThreshold time.Duration
	// MaxRequestBody bounds HTTP POST bodies accepted by the service's
	// handlers; <= 0 means DefaultMaxRequestBody. Raise it in lockstep
	// with the cluster router's spool bound when fleets ship huge dumps.
	MaxRequestBody int64
	// Faults, when set, threads the deterministic fault injector through
	// the service's seams: injected solver stalls ahead of each analysis
	// (SeamSolver) and corruption of attachment wire bytes at submit
	// (SeamDecode). Chaos-testing only; nil is free.
	Faults *fault.Injector
	// Node names this process in distributed traces and structured logs
	// (the cluster passes the advertise URL); "" means "local".
	Node string
	// FlightRec, when set, receives span summaries and operational
	// events for the always-on per-node flight recorder
	// (GET /internal/v1/flightrec). Nil is inert.
	FlightRec *obs.FlightRecorder

	// BeforeAnalyze, when set, runs in the worker just before each
	// analysis. Test-only: it lets lifecycle tests hold a worker busy
	// deterministically.
	BeforeAnalyze func()
	// analyzeHook, when set, runs in the worker in place of the analysis
	// preflight; a non-nil return fails the attempt. Test-only: it lets
	// retry tests inject transient failures deterministically.
	analyzeHook func(attempt int) error
}

// DefaultRetryBackoff is the first retry delay when Config.RetryBackoff
// is unset.
const DefaultRetryBackoff = 100 * time.Millisecond

// SubmitOverrides are per-request analysis-option overrides: a submitter
// can ask for a deeper or narrower search than the daemon's default for
// one dump without redeploying the fleet's configuration. Overridden
// knobs are folded into the options fingerprint, so a result computed
// under overrides is cached under its own key and can never be served to
// a submitter who asked for different options. Zero fields inherit the
// daemon's configuration.
type SubmitOverrides struct {
	MaxDepth  int `json:"max_depth,omitempty"`
	BeamWidth int `json:"beam_width,omitempty"`
}

// empty reports whether the overrides change nothing.
func (o *SubmitOverrides) empty() bool {
	return o == nil || (o.MaxDepth == 0 && o.BeamWidth == 0)
}

// DefaultQueueDepth is the per-shard queue bound when Config leaves it 0.
const DefaultQueueDepth = 64

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Job is the public record of one submitted dump. Its ID is the store
// key of the (program, dump, options) tuple, so resubmitting the same
// dump yields the same ID — duplicates coalesce instead of queueing
// twice.
type Job struct {
	ID          string `json:"id"`
	Program     string `json:"program"` // program fingerprint (hex)
	ProgramName string `json:"program_name,omitempty"`
	// TraceID identifies the distributed request trace this submission
	// joined (minted at the ingest edge, or inherited from the caller's
	// traceparent header). Grep any node's logs for it to reconstruct
	// the request; GET /v1/jobs/{id}/trace stitches its spans.
	TraceID string `json:"trace_id,omitempty"`
	Status  Status `json:"status"`
	// Cached marks a response served from the store without analysis.
	Cached bool `json:"cached"`
	// Partial marks a result cut short by drain or JobTimeout.
	Partial bool   `json:"partial,omitempty"`
	Bucket  string `json:"bucket,omitempty"`
	Error   string `json:"error,omitempty"`
	// Report is the deterministic analysis report (res.Result.JSON).
	Report json.RawMessage `json:"report,omitempty"`
	// Retries counts how many times a failed analysis of this tuple was
	// re-queued by the retry policy.
	Retries int `json:"retries,omitempty"`
	// Mode distinguishes the service's job flavors: "" is a plain
	// analysis, ModeFixVerify a fix-verification job (the report is a
	// fix verdict), ModeMinimize a delta-debugging job (the report is a
	// minimal repro).
	Mode string `json:"mode,omitempty"`
	// Evidence lists the kinds of the evidence sources attached to the
	// submission, in application order.
	Evidence []string `json:"evidence,omitempty"`
	// Checkpointed marks a submission that carried a checkpoint-ring
	// attachment; the anchoring outcome is the report's checkpoint_anchor.
	Checkpointed bool `json:"checkpointed,omitempty"`
	// Warnings lists non-fatal degradations applied to this job — a
	// corrupt evidence or checkpoint attachment that was dropped so the
	// dump could still be analyzed plain. The report is then the plain
	// tuple's report and is cached under the plain tuple's key.
	Warnings    []string  `json:"warnings,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
}

type jobState struct {
	job         Job
	key         store.Key // result key (the ID is its hash)
	dump        *res.Dump
	overrides   *SubmitOverrides // per-request analysis options, nil = daemon defaults
	evidence    evidence.Set     // per-request evidence attachment, nil = none
	checkpoints *checkpoint.Ring // per-request checkpoint attachment, nil = none
	retries     int
	done        chan struct{}
	// mode mirrors Job.Mode; it selects the worker's execution path.
	mode string
	// patch is the decoded candidate fix for ModeFixVerify jobs.
	patch *fixverify.Patch
	// src is the program's assembly source for ModeFixVerify jobs
	// (patches are applied to source; labels key the operations).
	src string
	// evidenceBytes/checkpointBytes retain the attachments' canonical
	// wire bytes past finish() — unlike the decoded forms they are small,
	// and MinimizeJob needs them to rebuild a finished job's exact tuple.
	evidenceBytes   []byte
	checkpointBytes []byte
	// trace is the finished analysis's span tree, served by
	// GET /v1/jobs/{id}/trace. Nil for cache hits (no analysis ran in
	// this process) and replayed/evicted records. Guarded by the service
	// mutex; immutable once set.
	trace *obs.TraceData
	// reqTrace is the live request-scoped fragment for fresh work: a
	// "request" root opened at submit under the caller's trace context,
	// with the analysis span tree later linked under its "analyze"
	// child. Guarded by the service mutex (the pointer; the Trace itself
	// is internally synchronized).
	reqTrace *obs.Trace
	// subs fan the job's analysis progress out to event-stream watchers;
	// guarded by the service mutex.
	subs []*progressSub
}

// shard is one program's analysis pool: a shared Analyzer session (the
// predecessor index computed once), a bounded queue, and counters.
type shard struct {
	fp       store.Fingerprint
	name     string
	prog     *res.Program // the registered image; minimize jobs re-analyze it
	analyzer *res.Analyzer
	queue    chan *jobState

	// Guarded by Service.mu.
	submitted, completed, failed, cached, rejected uint64
}

// Service is the ingestion engine. Construct with New, register programs,
// submit dumps, then Shutdown to drain.
type Service struct {
	cfg   Config
	store *store.Store
	optFP store.Fingerprint
	start time.Time // process start, backs resd_uptime_seconds

	baseCtx context.Context // canceled when a drain deadline forces cut-off
	cancel  context.CancelFunc

	mu       sync.Mutex
	shards   map[string]*shard // keyed by program fingerprint hex
	jobs     map[string]*jobState
	buckets  map[string][]string // bucket key -> job IDs
	draining bool
	wg       sync.WaitGroup

	// sources retains each source-registered program's text (keyed by
	// program fingerprint hex) so journal compaction can snapshot the
	// registration; replaying restores the shard.
	sources map[string]JournalProgram
	// replaying suppresses journal appends while New replays the journal
	// (replayed state must not be re-journaled). Only New's goroutine
	// runs while it is set.
	replaying bool

	// doneOrder tracks terminal job records oldest-finished first, the
	// eviction order for the MaxJobs/JobRetention bounds. Maintained only
	// when one of the bounds is configured.
	doneOrder []doneRec
	// evicted maps evicted complete jobs to the slim record needed to
	// keep GET /v1/results/{id} answering from the result store after the
	// full job record is gone. Bounded FIFO (evictedOrder), ~200 bytes
	// per entry against the kilobytes a full record holds. Each tombstone
	// carries a sequence number matched by its order entry, so an entry
	// staled by resurrect-and-reinsert (or a journal replay supersede)
	// can never trim a live tombstone.
	evicted      map[string]evictedRec
	evictedOrder []evictedRef
	evictedSeq   uint64
	// pendingRetries tracks jobs waiting out a retry backoff, so Shutdown
	// can terminalize them instead of abandoning their timers.
	pendingRetries map[*jobState]*retryRec

	submitted, completed, failed, canceled uint64
	rejected, coalesced                    uint64
	cacheHits, cacheMisses                 uint64
	jobsEvicted, retried                   uint64
	journalReplayed                        int
	// evidenceAttached counts accepted submissions that carried an
	// evidence attachment; evidenceKinds breaks them down per source kind.
	evidenceAttached uint64
	evidenceKinds    map[string]uint64
	// checkpointAttached counts accepted submissions that carried a
	// checkpoint-ring attachment; checkpointAnchored counts completed
	// analyses that anchored their search on one of its checkpoints.
	checkpointAttached uint64
	checkpointAnchored uint64
	// attachmentsDegraded counts corrupt evidence/checkpoint attachments
	// dropped at submit so the dump could still be analyzed plain.
	attachmentsDegraded uint64
	// fixverifyTotal counts completed fix verifications; fixverifyVerdicts
	// breaks them down per verdict.
	fixverifyTotal    uint64
	fixverifyVerdicts map[string]uint64
	// minimizeTotal counts completed minimizations; minimizeRuns the
	// analyzer re-runs they spent; minimizeReductions the reductions kept.
	minimizeTotal      uint64
	minimizeRuns       uint64
	minimizeReductions uint64

	// eventsDropped counts progress events lost to slow NDJSON watchers
	// across all streams (resd_events_dropped_total). Atomic: drops are
	// detected outside the service mutex, on the analyzing goroutine.
	eventsDropped atomic.Uint64

	// Latency histograms. All are created by New and never reassigned,
	// so Observe/Snapshot need no locking beyond the histogram's own
	// atomics. histSolver is keyed by obs.DepthBand band; histStoreOp by
	// store operation ("get", "put").
	histAnalysis  *obs.Histogram // end-to-end analysis wall time
	histQueueWait *obs.Histogram // submit-to-start shard-queue wait
	histBisect    *obs.Histogram // per-probe checkpoint-bisect replay
	histSolver    map[string]*obs.Histogram
	histStoreOp   map[string]*obs.Histogram
}

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

// retryRec pairs a backed-off job with its timer and shard.
type retryRec struct {
	sh    *shard
	timer *time.Timer
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
		s.jobsEvicted++
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

// New creates a service; it accepts work immediately (programs register
// lazily via RegisterProgram/RegisterSource). When Config.Journal is set,
// the journal is replayed first: journaled programs are re-registered and
// terminal jobs are restored — completed ones as store-backed records
// whose reports resolve from the content-addressed store, the rest as
// bare history — so job IDs, result polls, and crash-bucket membership
// survive a restart.
func New(cfg Config) *Service {
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.ShardWorkers < 1 {
		cfg.ShardWorkers = 1
	}
	if cfg.Store == nil {
		cfg.Store = store.New(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		store:   cfg.Store,
		optFP:   cfg.Analysis.Fingerprint(),
		start:   time.Now(),
		baseCtx: ctx,
		cancel:  cancel,
		shards:  make(map[string]*shard),
		jobs:    make(map[string]*jobState),
		buckets: make(map[string][]string),
		sources: make(map[string]JournalProgram),

		histAnalysis:  obs.NewHistogram(obs.LatencyBuckets),
		histQueueWait: obs.NewHistogram(obs.LatencyBuckets),
		histBisect:    obs.NewHistogram(obs.MicroBuckets),
		histSolver:    make(map[string]*obs.Histogram, len(obs.DepthBands)),
		histStoreOp: map[string]*obs.Histogram{
			"get": obs.NewHistogram(obs.MicroBuckets),
			"put": obs.NewHistogram(obs.MicroBuckets),
		},
	}
	for _, band := range obs.DepthBands {
		s.histSolver[band] = obs.NewHistogram(obs.MicroBuckets)
	}
	s.store.SetObserver(func(op string, d time.Duration) {
		if h := s.histStoreOp[op]; h != nil {
			h.Observe(d.Seconds())
		}
	})
	if cfg.Journal != nil {
		s.replayJournal()
	}
	return s
}

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
// identity. Mode-specific suffixes (fix verification's patch fingerprint,
// minimization's mode marker) are appended by the caller before hashing.
func optionsDesc(eff AnalysisConfig, ev evidence.Set, ck *checkpoint.Ring) string {
	desc := eff.Canonical()
	if fp := ev.Fingerprint(); fp != "" {
		desc += " evidence=" + fp
	}
	if fp := ck.Fingerprint(); fp != "" {
		desc += " checkpoints=" + fp
	}
	return desc
}

// noteEvidenceLocked counts an accepted submission's attachments.
// Caller holds s.mu.
func (s *Service) noteEvidenceLocked(ev evidence.Set, ck *checkpoint.Ring) {
	if ck != nil && !ck.Empty() {
		s.checkpointAttached++
	}
	if len(ev) == 0 {
		return
	}
	s.evidenceAttached++
	if s.evidenceKinds == nil {
		s.evidenceKinds = make(map[string]uint64)
	}
	for _, src := range ev {
		s.evidenceKinds[src.Kind()]++
	}
}

// Store exposes the backing store (for metrics and tests).
func (s *Service) Store() *store.Store { return s.store }

// RegisterProgram opens an analysis shard for p and returns its program
// ID (the program fingerprint in hex). Registration is idempotent: the
// same program image maps to the same shard no matter how often — or
// under which name — it is registered.
func (s *Service) RegisterProgram(name string, p *res.Program) (string, error) {
	fp, err := store.ProgramFingerprint(p)
	if err != nil {
		return "", err
	}
	id := fp.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "", ErrDraining
	}
	if _, ok := s.shards[id]; ok {
		return id, nil
	}
	aopts := s.cfg.Analysis.options()
	if s.cfg.Analysis.SearchParallelism <= 0 {
		// Unset: split the machine between the shard's workers and each
		// analysis's candidate-level pool instead of multiplying them.
		inner := runtime.GOMAXPROCS(0) / s.cfg.ShardWorkers
		if inner < 1 {
			inner = 1
		}
		aopts = append(aopts, res.WithSearchParallelism(inner))
	}
	sh := &shard{
		fp:       fp,
		name:     name,
		prog:     p,
		analyzer: res.NewAnalyzer(p, aopts...),
		queue:    make(chan *jobState, s.cfg.QueueDepth),
	}
	s.shards[id] = sh
	for i := 0; i < s.cfg.ShardWorkers; i++ {
		s.wg.Add(1)
		go s.worker(sh)
	}
	return id, nil
}

// RegisterSource assembles src and registers the resulting program. The
// source text is retained (and journaled, when a journal is configured)
// so the registration survives a restart.
func (s *Service) RegisterSource(name, src string) (string, error) {
	p, err := res.Assemble(src)
	if err != nil {
		return "", fmt.Errorf("%w: assembling %q: %w", ErrBadSource, name, err)
	}
	id, err := s.RegisterProgram(name, p)
	if err != nil {
		return id, err
	}
	rec := JournalProgram{Name: name, Source: src}
	s.mu.Lock()
	_, known := s.sources[id]
	if !known {
		s.sources[id] = rec
	}
	s.mu.Unlock()
	if !known {
		s.journalAppend(journalEntry{T: "program", Program: &rec})
	}
	return id, nil
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

// node names this process in trace fragments and flight events.
func (s *Service) node() string {
	if s.cfg.Node != "" {
		return s.cfg.Node
	}
	return "local"
}

// retainAttachments stores the attachments' canonical wire bytes on the
// job record. They survive finish() — which drops the decoded forms —
// so MinimizeJob can rebuild a finished job's exact tuple later.
func retainAttachments(js *jobState, ev evidence.Set, ck *checkpoint.Ring) {
	if len(ev) > 0 {
		js.evidenceBytes = ev.Encode()
	}
	if ck != nil && !ck.Empty() {
		js.checkpointBytes = ck.Encode()
	}
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
	_, known := s.shards[programID]
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
	dumpFP, canon, d, err := store.CanonicalizeDump(dumpBytes)
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
		ring = nil
	}
	if len(warnings) > 0 {
		s.mu.Lock()
		s.attachmentsDegraded += uint64(len(warnings))
		s.mu.Unlock()
		slog.Warn("degraded submission: corrupt attachment dropped",
			"trace_id", tc.TraceID, "program", programID,
			"warnings", strings.Join(warnings, "; "))
	}
	if o.empty() {
		o = nil
	}
	eff, optFP := s.effectiveAnalysis(o)
	if len(evSet) > 0 || !ring.Empty() || ex.mode != "" {
		desc := optionsDesc(eff, evSet, ring)
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
			s.submitted++
			sh.submitted++
			s.coalesced++
			s.noteEvidenceLocked(evSet, ring)
			s.mu.Unlock()
			return snap, nil
		case snap.Status == StatusDone && !snap.Partial:
			s.submitted++
			sh.submitted++
			s.cacheHits++
			sh.cached++
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
		s.cacheHits++
		sh.cached++
		sh.submitted++
		s.submitted++
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
		retainAttachments(js, evSet, ring)
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
	retainAttachments(js, evSet, ring)
	select {
	case sh.queue <- js:
	default:
		sh.rejected++
		s.rejected++
		s.mu.Unlock()
		return Job{}, ErrQueueFull
	}
	s.resurrectEvictedLocked(id)
	if stale != nil {
		s.removeBucketLocked(stale.job.Bucket, id)
	}
	s.cacheMisses++
	sh.submitted++
	s.submitted++
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
	s.retried++
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
		s.mu.Lock()
		s.checkpointAnchored++
		s.mu.Unlock()
	}
	bucket := bucketSignature(sh.name, r)
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

// Trace returns the finished analysis's span tree. The boolean is false
// when the job is unknown, not yet finished, or has no trace — a cache
// hit, a journal-replayed record, or an evicted one (the trace lives
// only in the analyzing process's memory, never in the store).
func (s *Service) Trace(id string) (*obs.TraceData, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok || js.trace == nil {
		return nil, false
	}
	return js.trace, true
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
		sh.completed++
		s.completed++
		s.addBucketLocked(js.job.Bucket, js.job.ID)
	case StatusFailed:
		sh.failed++
		s.failed++
	case StatusCanceled:
		s.canceled++
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

// ShardMetrics is one program pool's counters.
type ShardMetrics struct {
	Program    string `json:"program"`
	Name       string `json:"name,omitempty"`
	QueueDepth int    `json:"queue_depth"`
	Submitted  uint64 `json:"submitted"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Cached     uint64 `json:"cached"`
	Rejected   uint64 `json:"rejected"`
}

// Metrics is a consistent snapshot of service health.
type Metrics struct {
	QueueDepth   int         `json:"queue_depth"`
	Submitted    uint64      `json:"submitted"`
	Completed    uint64      `json:"completed"`
	Failed       uint64      `json:"failed"`
	Canceled     uint64      `json:"canceled"`
	Rejected     uint64      `json:"rejected"`
	Coalesced    uint64      `json:"coalesced"`
	Retried      uint64      `json:"retried"`
	CacheHits    uint64      `json:"cache_hits"`
	CacheMisses  uint64      `json:"cache_misses"`
	CacheHitRate float64     `json:"cache_hit_rate"`
	Store        store.Stats `json:"store"`
	Jobs         int         `json:"jobs"`
	JobsEvicted  uint64      `json:"jobs_evicted"`
	Buckets      int         `json:"buckets"`
	Programs     int         `json:"programs"`
	Draining     bool        `json:"draining"`
	// EvidenceAttached counts accepted submissions that carried an
	// evidence attachment; EvidenceSources breaks them down per kind.
	EvidenceAttached uint64            `json:"evidence_attached"`
	EvidenceSources  map[string]uint64 `json:"evidence_sources,omitempty"`
	// CheckpointAttached counts accepted submissions that carried a
	// checkpoint-ring attachment; CheckpointAnchored counts completed
	// analyses whose search anchored on one of its checkpoints.
	CheckpointAttached uint64 `json:"checkpoint_attached"`
	CheckpointAnchored uint64 `json:"checkpoint_anchored"`
	// AttachmentsDegraded counts submissions whose evidence or checkpoint
	// attachment failed to decode and was dropped: the analysis ran
	// without it instead of rejecting the dump.
	AttachmentsDegraded uint64 `json:"attachments_degraded,omitempty"`
	// FixVerifyTotal counts completed fix verifications; FixVerifyVerdicts
	// breaks them down per verdict.
	FixVerifyTotal    uint64            `json:"fixverify_total,omitempty"`
	FixVerifyVerdicts map[string]uint64 `json:"fixverify_verdicts,omitempty"`
	// MinimizeTotal counts completed minimizations; MinimizeRuns the
	// analyzer re-runs they spent; MinimizeReductions the reductions that
	// survived (kept because the cause key was preserved).
	MinimizeTotal      uint64       `json:"minimize_total,omitempty"`
	MinimizeRuns       uint64       `json:"minimize_runs,omitempty"`
	MinimizeReductions uint64       `json:"minimize_reductions,omitempty"`
	Journal            JournalStats `json:"journal,omitzero"`
	// JournalReplayed counts entries restored from the journal at startup.
	JournalReplayed int            `json:"journal_replayed,omitempty"`
	Shards          []ShardMetrics `json:"shards"`
}

// Metrics returns a snapshot of all counters.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	m := Metrics{
		Submitted: s.submitted, Completed: s.completed, Failed: s.failed,
		Canceled: s.canceled, Rejected: s.rejected, Coalesced: s.coalesced,
		Retried:   s.retried,
		CacheHits: s.cacheHits, CacheMisses: s.cacheMisses,
		Jobs: len(s.jobs), JobsEvicted: s.jobsEvicted,
		Buckets: len(s.buckets), Programs: len(s.shards),
		Draining:            s.draining,
		JournalReplayed:     s.journalReplayed,
		EvidenceAttached:    s.evidenceAttached,
		CheckpointAttached:  s.checkpointAttached,
		CheckpointAnchored:  s.checkpointAnchored,
		AttachmentsDegraded: s.attachmentsDegraded,
		FixVerifyTotal:      s.fixverifyTotal,
		MinimizeTotal:       s.minimizeTotal,
		MinimizeRuns:        s.minimizeRuns,
		MinimizeReductions:  s.minimizeReductions,
	}
	if len(s.fixverifyVerdicts) > 0 {
		m.FixVerifyVerdicts = make(map[string]uint64, len(s.fixverifyVerdicts))
		for k, v := range s.fixverifyVerdicts {
			m.FixVerifyVerdicts[k] = v
		}
	}
	if len(s.evidenceKinds) > 0 {
		m.EvidenceSources = make(map[string]uint64, len(s.evidenceKinds))
		for k, v := range s.evidenceKinds {
			m.EvidenceSources[k] = v
		}
	}
	if total := m.CacheHits + m.CacheMisses; total > 0 {
		m.CacheHitRate = float64(m.CacheHits) / float64(total)
	}
	for id, sh := range s.shards {
		depth := len(sh.queue)
		m.QueueDepth += depth
		m.Shards = append(m.Shards, ShardMetrics{
			Program: id, Name: sh.name, QueueDepth: depth,
			Submitted: sh.submitted, Completed: sh.completed,
			Failed: sh.failed, Cached: sh.cached, Rejected: sh.rejected,
		})
	}
	s.mu.Unlock()
	sort.Slice(m.Shards, func(i, j int) bool { return m.Shards[i].Program < m.Shards[j].Program })
	m.Store = s.store.Stats()
	if s.cfg.Journal != nil {
		m.Journal = s.cfg.Journal.Stats()
	}
	return m
}

// MetricsSnapshot renders every service metric as an obs.Snapshot —
// the single source of truth behind GET /metrics (Prometheus text via
// obs.WriteProm) and cluster federation (obs.NodeSnapshot JSON, merged
// by GET /v1/cluster/metrics).
func (s *Service) MetricsSnapshot() obs.Snapshot {
	m := s.Metrics()
	snap := obs.Snapshot{
		obs.Gauge("resd_queue_depth", "Dumps queued across all shards.", float64(m.QueueDepth)),
		obs.Counter("resd_submitted_total", "Dumps accepted (fresh, cached, or coalesced).", float64(m.Submitted)),
		obs.Counter("resd_completed_total", "Analyses finished successfully.", float64(m.Completed)),
		obs.Counter("resd_failed_total", "Analyses that failed.", float64(m.Failed)),
		obs.Counter("resd_canceled_total", "Jobs canceled during drain.", float64(m.Canceled)),
		obs.Counter("resd_rejected_total", "Submissions rejected by backpressure.", float64(m.Rejected)),
		obs.Counter("resd_coalesced_total", "Duplicate submissions merged onto in-flight jobs.", float64(m.Coalesced)),
		obs.Counter("resd_cache_hits_total", "Submissions served from the result store.", float64(m.CacheHits)),
		obs.Counter("resd_cache_misses_total", "Submissions that required fresh analysis.", float64(m.CacheMisses)),
		obs.Gauge("resd_cache_hit_rate", "cache_hits / (cache_hits + cache_misses).", m.CacheHitRate),
		obs.Gauge("resd_store_entries", "Result-store memory-tier population.", float64(m.Store.Entries)),
		obs.Counter("resd_store_disk_hits_total", "Store gets answered by the disk tier.", float64(m.Store.DiskHits)),
		obs.Counter("resd_store_evictions_total", "LRU evictions from the store memory tier.", float64(m.Store.Evictions)),
		obs.Gauge("resd_buckets", "Distinct crash-dedup buckets.", float64(m.Buckets)),
		obs.Gauge("resd_programs", "Registered program shards.", float64(m.Programs)),
		obs.Gauge("resd_jobs", "Job records retained in memory.", float64(m.Jobs)),
		obs.Counter("resd_jobs_evicted_total", "Terminal job records evicted by the MaxJobs/JobRetention bounds.", float64(m.JobsEvicted)),
		obs.Counter("resd_jobs_retried_total", "Failed analyses re-queued by the retry policy.", float64(m.Retried)),
		obs.Counter("resd_evidence_attached_total", "Accepted submissions carrying an evidence attachment.", float64(m.EvidenceAttached)),
	}
	kinds := make([]string, 0, len(m.EvidenceSources))
	for k := range m.EvidenceSources {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		snap = append(snap, obs.Counter("resd_evidence_sources_total",
			"Evidence sources attached to accepted submissions, per kind.",
			float64(m.EvidenceSources[k])).With("kind", k))
	}
	snap = append(snap,
		obs.Counter("resd_fixverify_total", "Completed fix verifications.", float64(m.FixVerifyTotal)),
	)
	verdicts := make([]string, 0, len(m.FixVerifyVerdicts))
	for v := range m.FixVerifyVerdicts {
		verdicts = append(verdicts, v)
	}
	sort.Strings(verdicts)
	for _, v := range verdicts {
		snap = append(snap, obs.Counter("resd_fixverify_verdicts_total",
			"Completed fix verifications, per verdict.",
			float64(m.FixVerifyVerdicts[v])).With("verdict", v))
	}
	snap = append(snap,
		obs.Counter("resd_minimize_total", "Completed minimizations.", float64(m.MinimizeTotal)),
		obs.Counter("resd_minimize_runs_total", "Analyzer re-runs spent by minimizations.", float64(m.MinimizeRuns)),
		obs.Counter("resd_minimize_reductions_total", "Reductions kept by minimizations (cause key preserved).", float64(m.MinimizeReductions)),
	)
	snap = append(snap,
		obs.Counter("resd_checkpoint_attached_total", "Accepted submissions carrying a checkpoint-ring attachment.", float64(m.CheckpointAttached)),
		obs.Counter("resd_checkpoint_anchored_total", "Completed analyses anchored on a recorded checkpoint.", float64(m.CheckpointAnchored)),
		obs.Counter("resd_attachments_degraded_total", "Corrupt evidence/checkpoint attachments dropped at submit; the analysis ran without them.", float64(m.AttachmentsDegraded)),
		obs.Counter("resd_journal_corrupt_entries_total", "Corrupt mid-file journal entries skipped during replay.", float64(m.Journal.CorruptEntries)),
		obs.Counter("resd_store_replica_hits_total", "Store gets answered by the cluster read-through fetch.", float64(m.Store.ReplicaHits)),
		obs.Counter("resd_journal_appends_total", "Entries appended to the job journal.", float64(m.Journal.Appends)),
		obs.Counter("resd_journal_compactions_total", "Journal compactions into a snapshot.", float64(m.Journal.Compactions)),
		obs.Gauge("resd_journal_replayed", "Journal entries replayed at startup.", float64(m.JournalReplayed)),
		obs.Counter("resd_events_dropped_total", "Progress events dropped by slow NDJSON watchers.", float64(s.eventsDropped.Load())),
		obs.Gauge("resd_build_info", "Build metadata; the value is always 1.", 1).
			With("version", obs.Version, "go_version", runtime.Version()),
		obs.HistogramMetric("resd_analysis_seconds", "End-to-end analysis wall time.", s.histAnalysis.Snapshot()),
		obs.HistogramMetric("resd_queue_wait_seconds", "Time a job waited on its shard queue before analysis started.", s.histQueueWait.Snapshot()),
	)
	for _, band := range obs.DepthBands {
		snap = append(snap, obs.HistogramMetric("resd_solver_depth_seconds",
			"Solver time per frontier depth, banded by depth.",
			s.histSolver[band].Snapshot()).With("depth_band", band))
	}
	snap = append(snap, obs.HistogramMetric("resd_bisect_replay_seconds",
		"Forward-replay time per checkpoint-bisect verification probe.", s.histBisect.Snapshot()))
	for _, op := range []string{"get", "put"} {
		snap = append(snap, obs.HistogramMetric("resd_store_op_seconds",
			"Result-store operation latency, per operation.",
			s.histStoreOp[op].Snapshot()).With("op", op))
	}
	for _, sh := range m.Shards {
		snap = append(snap, obs.Gauge("resd_shard_queue_depth", "Dumps queued per program shard.",
			float64(sh.QueueDepth)).With("program", sh.Program, "name", sh.Name))
	}
	for _, sh := range m.Shards {
		snap = append(snap, obs.Counter("resd_shard_submitted_total", "Dumps accepted per program shard.",
			float64(sh.Submitted)).With("program", sh.Program, "name", sh.Name))
	}
	for _, sh := range m.Shards {
		snap = append(snap, obs.Counter("resd_shard_cached_total", "Cache-hit responses per program shard.",
			float64(sh.Cached)).With("program", sh.Program, "name", sh.Name))
	}
	snap = append(snap, obs.RuntimeMetrics(s.start)...)
	return snap
}

// Shutdown drains the service: new submissions are rejected with
// ErrDraining, queued work keeps running, and Shutdown returns when every
// worker has exited. If ctx ends first, in-flight analyses are canceled —
// they finish immediately with partial results (recorded on their jobs,
// never cached) and queued-but-unstarted jobs are marked canceled.
// Shutdown is idempotent; concurrent calls all wait for the same drain.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, sh := range s.shards {
			close(sh.queue)
		}
	}
	// Jobs waiting out a retry backoff sit on timers, not queues: cancel
	// them now so their waiters release and their outcome is journaled —
	// an abandoned timer would strand the job as silently never-finished.
	pending := s.pendingRetries
	s.pendingRetries = nil
	s.mu.Unlock()
	for js, rec := range pending {
		rec.timer.Stop() // a timer that already fired finds its registration gone
		s.finish(rec.sh, js, func(j *Job) {
			j.Status = StatusCanceled
			j.Error = "canceled during drain (retry pending)"
		})
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.finalizeJournal()
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		s.finalizeJournal()
		return ctx.Err()
	}
}

// finalizeJournal compacts the journal once the drain completes, so the
// next start replays one snapshot instead of the whole append history.
func (s *Service) finalizeJournal() {
	if s.cfg.Journal == nil {
		return
	}
	s.mu.Lock()
	snap := s.journalSnapshotLocked()
	s.mu.Unlock()
	if s.cfg.Journal.Compact(snap) == nil {
		s.mirrorSnapshot(snap)
	}
}

// bucketSignature derives the dedup key from a completed analysis. The
// strongest signal is the root-cause key (stable across manifestations of
// one bug — the paper's fix for WER over-splitting); with no cause, a
// synthesized suffix's schedule shape still groups alike failures; with
// neither, the verdict is all there is.
func bucketSignature(app string, r *res.Result) string {
	if r.Cause != nil {
		return app + "|" + r.Cause.Key()
	}
	if r.Suffix != nil && len(r.Suffix.Steps) > 0 {
		h := sha256.New()
		for _, st := range r.Suffix.Steps {
			fmt.Fprintln(h, st.String())
		}
		return app + "|suffix:" + hex.EncodeToString(h.Sum(nil)[:6])
	}
	if r.HardwareSuspect {
		return app + "|hardware-suspect"
	}
	return app + "|no-cause"
}

// bucketFromReport recovers the dedup key from a stored report (the
// cache-hit path, where no res.Result exists in memory). It mirrors
// bucketSignature over the report's exported schema, res.ReportJSON, so
// a cached job lands in the same bucket a fresh analysis would.
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
