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
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
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

	submitted, cached atomic.Uint64
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

	// Counters. MetricsSnapshot names each one and gives it its help
	// text. A submission counts as exactly one of cacheHits, cacheMisses
	// and coalesced; their sum is resd_submitted_total.
	completed, failed, canceled atomic.Uint64
	rejected, coalesced         atomic.Uint64
	cacheHits, cacheMisses      atomic.Uint64
	jobsEvicted, retried        atomic.Uint64
	journalReplayed             atomic.Uint64
	evidenceAttached            atomic.Uint64
	checkpointAttached          atomic.Uint64
	checkpointAnchored          atomic.Uint64
	attachmentsDegraded         atomic.Uint64
	minimizeTotal               atomic.Uint64
	minimizeRuns                atomic.Uint64
	minimizeReductions          atomic.Uint64
	eventsDropped               atomic.Uint64
	// Per-label counter families, guarded by mu: evidence sources per
	// kind, and fix verdicts per verdict (their sum is
	// resd_fixverify_total).
	evidenceKinds     map[string]uint64
	fixverifyVerdicts map[string]uint64

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

// node names this process in trace fragments and flight events.
func (s *Service) node() string {
	if s.cfg.Node != "" {
		return s.cfg.Node
	}
	return "local"
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
