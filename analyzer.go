package res

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"res/internal/breadcrumb"
	"res/internal/checkpoint"
	"res/internal/core"
	"res/internal/coredump"
	"res/internal/evidence"
	"res/internal/hwerr"
	"res/internal/obs"
	"res/internal/replay"
	"res/internal/rootcause"
	"res/internal/solver"
	"res/internal/taint"
)

// Re-exported analysis types, so callers only import this package.
type (
	// Event is one progress report from the backward search (see the
	// EventKind constants). Delivered via WithObserver.
	Event = core.Event
	// EventKind classifies an Event.
	EventKind = core.EventKind
	// SearchStats aggregates backward-search effort.
	SearchStats = core.Stats
	// SolverOptions tunes constraint solving (WithSolverOptions).
	SolverOptions = solver.Options
	// LBRMode selects the (simulated) hardware branch-recording mode used
	// when interpreting a dump's branch ring (WithLBR).
	LBRMode = breadcrumb.Mode
	// HardwareVerdict is the §3.2 hardware-vs-software classification.
	HardwareVerdict = hwerr.Verdict
)

// Event kinds (re-exported from internal/core).
const (
	// EventDepth: the breadth-first frontier advanced to a new depth.
	EventDepth = core.EventDepth
	// EventNode: one backward step was attempted.
	EventNode = core.EventNode
	// EventSuffix: a feasible execution suffix was found.
	EventSuffix = core.EventSuffix
	// EventSolver: periodic solver/search statistics snapshot.
	EventSolver = core.EventSolver
)

// LBR interpretation modes (re-exported from internal/breadcrumb).
const (
	// LBRRecordAll models hardware that records every taken transfer.
	LBRRecordAll = breadcrumb.RecordAll
	// LBRSkipConditional models filtered hardware that records only
	// unconditional transfers.
	LBRSkipConditional = breadcrumb.SkipConditional
)

// config is the resolved analysis configuration an Analyzer carries and a
// single Analyze call can override.
type config struct {
	maxDepth     int
	maxNodes     int
	beamWidth    int
	useLBR       bool
	lbrMode      LBRMode
	matchOutputs bool
	evidence     []evidence.Source
	solver       SolverOptions
	observer     func(Event)
	parallelism  int
	checkpoints  *checkpoint.Ring
	trace        bool
}

// Option configures an Analyzer (at construction) or a single analysis
// (per Analyze/AnalyzeBatch call; per-call options override the
// analyzer's).
type Option func(*config)

// WithMaxDepth bounds the suffix length in blocks. 0 = default (24).
func WithMaxDepth(n int) Option { return func(c *config) { c.maxDepth = n } }

// WithMaxNodes bounds backward-step attempts. 0 = default (100000).
func WithMaxNodes(n int) Option { return func(c *config) { c.maxNodes = n } }

// WithBeamWidth caps the frontier nodes kept per depth. 0 = unlimited.
func WithBeamWidth(n int) Option { return func(c *config) { c.beamWidth = n } }

// WithLBR prunes the search with the dump's branch ring, interpreted
// under the given recording mode (LBRRecordAll or LBRSkipConditional).
func WithLBR(mode LBRMode) Option {
	return func(c *config) { c.useLBR, c.lbrMode = true, mode }
}

// WithMatchOutputs prunes the search with error-log breadcrumbs: the
// suffix's OUTPUT records must match the tail of the dump's output log.
func WithMatchOutputs() Option { return func(c *config) { c.matchOutputs = true } }

// WithEvidence prunes the search with production-side evidence: each
// source (an event log, a partial branch trace, memory probes, ...) is
// compiled into backward-search constraints for the analyzed dump.
// Sources accumulate across options — WithEvidence(a), WithEvidence(b)
// is WithEvidence(a, b) — and apply after any WithLBR/WithMatchOutputs
// hints (which are the same machinery under their classic names). The
// supplied sources are reported in the Result's Evidence provenance.
func WithEvidence(srcs ...EvidenceSource) Option {
	return func(c *config) { c.evidence = append(c.evidence, srcs...) }
}

// WithCheckpoints anchors the backward search on a checkpoint ring
// recorded during the failing execution (resrun -record-checkpoints).
// Before searching, the analyzer bisects the ring — forward-replays from
// candidate checkpoints to find the latest one that still reproduces the
// failure — and pins the search there: the suffix is bounded by the
// checkpoint interval instead of the execution length, and the anchor
// state is asserted as solver constraints, so histories inconsistent
// with the recording die early. If the anchored window yields only a
// generic cause, the analyzer widens to the next-earlier checkpoint and
// accepts the narrow answer only when the wider window confirms its
// cause key; disagreement falls back to the plain unanchored search, so
// anchoring never changes which root cause is reported. Pass nil to
// clear a previously configured ring.
func WithCheckpoints(r *CheckpointRing) Option {
	return func(c *config) { c.checkpoints = r }
}

// WithSolverOptions tunes constraint solving; zero fields take defaults.
func WithSolverOptions(o SolverOptions) Option { return func(c *config) { c.solver = o } }

// WithSearchParallelism sets how many candidate backward steps the search
// evaluates concurrently within each depth of one analysis. n <= 0 (and
// the unset default) means automatic: runtime.GOMAXPROCS(0) for a
// standalone Analyze, and the machine divided among the batch's workers
// inside AnalyzeBatch — so batch-level and candidate-level parallelism
// compose instead of multiplying. Pass 1 to force the sequential engine.
// Any value produces bit-identical results: candidate outcomes are
// merged in deterministic order, so reports, events, and triage buckets
// match the sequential engine exactly — only the wall-clock changes.
func WithSearchParallelism(n int) Option { return func(c *config) { c.parallelism = n } }

// WithObserver streams search progress events to fn. Events are delivered
// synchronously from the analyzing goroutine, so fn must be fast; during
// AnalyzeBatch it is called concurrently from all workers and must be
// safe for concurrent use.
func WithObserver(fn func(Event)) Option { return func(c *config) { c.observer = fn } }

// WithTrace records a per-analysis observability span tree: evidence
// compilation, checkpoint bisection (with per-probe forward-replay
// timings), every search depth's attempt counts and solver time, and
// each cause-extraction replay. The finished tree is attached to the
// Result as Trace (and to the JSON report's "trace" field), renderable
// as Chrome trace-event JSON via its ChromeTrace method. Tracing adds
// no behavioral branches to the search: the produced report is
// byte-identical (modulo the trace itself) with tracing on or off, at
// any parallelism. Traces carry wall-clock timings and are excluded
// from the report-determinism guarantee.
func WithTrace(on bool) Option { return func(c *config) { c.trace = on } }

// Analyzer is a long-lived analysis session for one program: construct it
// once per program and reuse it for every coredump of that program. The
// constructor precomputes the program's backward-CFG predecessor index so
// the search shares it across analyses instead of rebuilding it per node.
//
// An Analyzer is safe for concurrent use: Analyze may be called from any
// number of goroutines simultaneously (each call runs on its own engine
// and symbolic-variable pool; the shared program and predecessor index
// are read-only).
type Analyzer struct {
	p     *Program
	preds core.PredIndex
	base  config
}

// NewAnalyzer creates an analysis session for p. The options become the
// session defaults; individual Analyze calls can override them.
func NewAnalyzer(p *Program, opts ...Option) *Analyzer {
	a := &Analyzer{p: p, preds: core.BuildPredIndex(p)}
	for _, o := range opts {
		o(&a.base)
	}
	return a
}

// Program returns the program this session analyzes.
func (a *Analyzer) Program() *Program { return a.p }

// sources resolves the configured evidence, classic hints first: the
// WithLBR/WithMatchOutputs flags lower to their evidence.Source forms,
// then the explicitly supplied sources follow in order.
func (c config) sources() evidence.Set {
	var srcs evidence.Set
	if c.useLBR {
		srcs = append(srcs, evidence.LBR{Mode: c.lbrMode})
	}
	if c.matchOutputs {
		srcs = append(srcs, evidence.OutputLog{})
	}
	return append(srcs, c.evidence...)
}

// coreOptions lowers the resolved config to engine options for one dump.
// Evidence compiles per-dump (its constraints anchor to the dump's step
// count and breadcrumbs), which is why this can fail.
func (c config) coreOptions(a *Analyzer, d *Dump) (core.Options, error) {
	par := c.parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	copt := core.Options{
		MaxDepth:    c.maxDepth,
		MaxNodes:    c.maxNodes,
		BeamWidth:   c.beamWidth,
		Solver:      c.solver,
		OnEvent:     c.observer,
		Preds:       a.preds,
		Parallelism: par,
	}
	pruners, err := c.sources().Compile(a.p, d)
	if err != nil {
		return core.Options{}, err
	}
	copt.Evidence = pruners
	return copt, nil
}

// Analyze synthesizes an execution suffix for the dump and identifies the
// failure's root cause. It searches breadth-first: the first faithful
// suffix whose instrumented replay justifies a specific root cause (race,
// atomicity violation, heap corruption) stops the search; otherwise the
// deepest faithful suffix's analysis is returned.
//
// Cancellation and deadlines on ctx are observed between backward-step
// attempts and inside the solver's search loops, so Analyze returns
// promptly when the context ends. In that case it returns the partial
// Result accumulated so far (Partial is set, Report holds the partial
// search statistics, and Cause may or may not be populated) together with
// ctx.Err() — check the error, but do not discard the Result.
func (a *Analyzer) Analyze(ctx context.Context, d *Dump, opts ...Option) (*Result, error) {
	cfg := a.base
	for _, o := range opts {
		o(&cfg)
	}
	start := time.Now()
	var (
		tr   *obs.Trace
		root *obs.Span
	)
	if cfg.trace {
		tr = obs.NewTrace("analysis")
		root = tr.Root()
		root.SetInt("dump_steps", int64(d.Steps))
	}
	var (
		res *Result
		err error
	)
	if cfg.checkpoints != nil && !cfg.checkpoints.Empty() {
		res, err = a.analyzeCheckpointed(ctx, d, cfg, root)
	} else {
		res, _, err = a.runAnalysis(ctx, d, cfg, nil, root)
	}
	if res != nil {
		res.Elapsed = time.Since(start)
		if tr != nil {
			res.Trace = tr.Finish()
		}
	}
	return res, err
}

// searchAnchor pairs a checkpoint with its compiled anchor descriptor
// for one runAnalysis invocation. nil means an unanchored (plain) run.
type searchAnchor struct {
	ck     *checkpoint.Checkpoint
	anchor checkpoint.Anchor
}

// analyzeCheckpointed is Analyze with a checkpoint ring: bisect for the
// latest checkpoint that reproduces the failure, search the bounded
// window it pins, and escalate to wider windows only as far as needed to
// trust the answer.
//
// The escalation ladder is (1) anchored at the bisected checkpoint,
// (2) anchored at the next-earlier checkpoint, (3) plain full-depth
// search. A faithful specific cause is accepted where it is found — the
// suffix provably contains the defect. A faithful generic cause is
// accepted only when the next-wider window reproduces its cause key
// (the narrow window might have truncated the real defect); agreement
// returns the narrower run's result, so the reported anchor reflects
// the tightest window that was independently confirmed.
func (a *Analyzer) analyzeCheckpointed(ctx context.Context, d *Dump, cfg config, root *obs.Span) (*Result, error) {
	ring := cfg.checkpoints
	bspan := root.Child("checkpoint-bisect")
	var onVerify func(c *checkpoint.Checkpoint, dur time.Duration, ok bool)
	if bspan != nil {
		onVerify = func(c *checkpoint.Checkpoint, dur time.Duration, ok bool) {
			v := bspan.Child("verify")
			v.SetAttrs(
				obs.Attr{Key: "step", Val: int64(c.Step)},
				obs.Attr{Key: "replay_ns", Val: dur.Nanoseconds()},
				obs.Attr{Key: "ok", Val: b2i(ok)},
			)
			v.End()
		}
	}
	ck, verified := ring.BisectObserved(a.p, d, onVerify)
	if ck == nil {
		bspan.End()
		res, _, err := a.runAnalysis(ctx, d, cfg, nil, root)
		return res, err
	}
	ladder := []*searchAnchor{{ck: ck, anchor: checkpoint.NewAnchor(ck, d.Steps, verified)}}
	if prev := ring.EarlierThan(ck.Step, d.Steps); prev != nil {
		t0 := time.Now()
		pv := ring.Verify(a.p, prev, d)
		if onVerify != nil {
			onVerify(prev, time.Since(t0), pv)
		}
		ladder = append(ladder, &searchAnchor{
			ck:     prev,
			anchor: checkpoint.NewAnchor(prev, d.Steps, pv),
		})
	}
	bspan.SetInt("anchor_step", int64(ck.Step))
	bspan.SetInt("verified", b2i(verified))
	bspan.End()
	ladder = append(ladder, nil)

	var (
		prevRes  *Result
		prevBest *analysisCandidate
	)
	for i, sa := range ladder {
		res, best, err := a.runAnalysis(ctx, d, cfg, sa, root)
		if err != nil {
			return res, err
		}
		if best != nil && best.replay.Matches {
			if specific(best.cause) {
				return res, nil
			}
			if prevBest != nil && prevBest.cause.Key() == best.cause.Key() {
				return prevRes, nil
			}
			if i == len(ladder)-1 {
				return res, nil
			}
			prevRes, prevBest = res, best
			continue
		}
		// Nothing faithful in this window: a wider window may still
		// succeed, but a previously found answer is not "confirmed
		// failed" by an empty wider search — the plain run decides.
		if i == len(ladder)-1 {
			if best == nil && prevRes != nil {
				return prevRes, nil
			}
			return res, nil
		}
		prevRes, prevBest = nil, nil
	}
	panic("unreachable")
}

// runAnalysis performs one backward search over the dump, optionally
// anchored at a checkpoint, and assembles the Result. It also returns
// the winning candidate so callers can reason about its quality.
func (a *Analyzer) runAnalysis(ctx context.Context, d *Dump, cfg config, sa *searchAnchor, root *obs.Span) (*Result, *analysisCandidate, error) {
	espan := root.Child("evidence-compile")
	copt, cerr := cfg.coreOptions(a, d)
	if espan != nil {
		if cerr == nil {
			espan.SetInt("pruners", int64(len(copt.Evidence)))
		}
		espan.End()
	}
	if cerr != nil {
		return nil, nil, cerr
	}
	if sa != nil {
		// The anchor pins the complete machine state at its depth:
		// searching deeper would only re-derive the recording, so the
		// anchor depth is also the depth bound.
		copt.MaxDepth = sa.anchor.Depth
		copt.Evidence = append(copt.Evidence, sa.anchor.Pruner(sa.ck))
	}
	sspan := root.Child("search")
	if sspan != nil {
		sspan.SetInt("anchored", b2i(sa != nil))
		sspan.SetInt("max_depth", int64(copt.MaxDepth))
	}
	copt.Trace = sspan
	var (
		eng     *core.Engine
		best    *analysisCandidate
		stopErr error
	)
	copt.OnSuffix = func(n *core.Node) bool {
		if cerr := ctx.Err(); cerr != nil {
			// Stop the search; the context error is surfaced below.
			stopErr = cerr
			return true
		}
		var cspan *obs.Span
		if sspan != nil {
			cspan = sspan.Child("cause-extraction")
			cspan.SetInt("depth", int64(n.Depth))
		}
		cand := analyzeNode(a.p, eng, n, d)
		if cspan != nil {
			cspan.SetInt("cause_found", b2i(cand != nil))
			if cand != nil {
				cspan.SetInt("faithful", b2i(cand.replay.Matches))
				cspan.SetStr("cause", cand.cause.Kind.String())
			}
			cspan.End()
		}
		if cand == nil {
			return false
		}
		if best == nil || cand.better(best) {
			best = cand
		}
		// Stop as soon as a specific cause is justified by a faithful
		// replay: the suffix is long enough to contain the root cause.
		return cand.replay.Matches && specific(cand.cause)
	}
	eng = core.New(a.p, copt)

	rep, err := eng.AnalyzeContext(ctx, d)
	sspan.End()
	if rep == nil {
		return nil, nil, err
	}
	res := &Result{Report: rep, HardwareSuspect: rep.HardwareSuspect}
	if sa != nil {
		anchor := sa.anchor
		res.CheckpointAnchor = &anchor
	}
	if len(cfg.evidence) > 0 {
		// Provenance: the explicitly supplied evidence sources. The classic
		// WithLBR/WithMatchOutputs hints are deliberately not listed, so
		// reports produced through the legacy options are byte-identical to
		// the pre-evidence engine's.
		res.Evidence = evidence.Set(cfg.evidence).Kinds()
	}
	if best != nil {
		res.Cause = best.cause
		res.CauseDepth = best.node.Depth
		res.Suffix = best.syn.Suffix
		res.Synthesized = best.syn
		res.Replay = best.replay
		if tr, terr := taint.Analyze(a.p, best.syn, d); terr == nil {
			res.Exploitability = tr
		}
	}
	// Partiality is judged by how the search itself ended (engine
	// interruption or the OnSuffix context stop), not by re-polling ctx:
	// a search that ran to completion just before its deadline fired is
	// complete, not partial.
	if err == nil {
		err = stopErr
	}
	res.Partial = err != nil
	return res, best, err
}

// AnalyzeBatch analyzes many dumps of the session's program over a worker
// pool. Results are positional: results[i] is the analysis of dumps[i].
// Each dump is analyzed independently and deterministically, so the
// results are identical to running Analyze sequentially over the slice.
//
// The parallelism contract: any parallelism <= 0 is clamped to
// runtime.GOMAXPROCS(0) — callers can pass 0 (or a config value that was
// never set) and get full-machine parallelism rather than a deadlocked or
// serial batch — and values above len(dumps) are clamped down to it, so
// no idle workers are spawned. An empty dumps slice returns immediately
// with an empty, non-nil result slice and a nil error.
//
// The returned error joins the per-dump errors (nil when every analysis
// succeeded); a canceled context fails the remaining dumps with ctx.Err()
// while results already produced are kept.
//
// While the search parallelism is automatic (unset, or any
// WithSearchParallelism value <= 0), each analysis gets GOMAXPROCS
// divided by the batch's worker count, so batch-level and candidate-level
// parallelism together use the machine once instead of multiplying into
// oversubscription. Results are unaffected either way.
func (a *Analyzer) AnalyzeBatch(ctx context.Context, dumps []*Dump, parallelism int, opts ...Option) ([]*Result, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(dumps) {
		parallelism = len(dumps)
	}
	cfg := a.base
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.parallelism <= 0 && parallelism > 0 {
		inner := runtime.GOMAXPROCS(0) / parallelism
		if inner < 1 {
			inner = 1
		}
		opts = append(append([]Option(nil), opts...), WithSearchParallelism(inner))
	}
	results := make([]*Result, len(dumps))
	errs := make([]error, len(dumps))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = a.Analyze(ctx, dumps[i], opts...)
			}
		}()
	}
	for i := range dumps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("dump %d: %w", i, err)
		}
	}
	return results, errors.Join(errs...)
}

// ClassifyHardware answers the §3.2 question for a dump of the session's
// program: is the dump consistent with any feasible software execution,
// or is it the signature of a hardware error? Cancellation returns the
// zero verdict and ctx.Err(): absence of a suffix is only evidence once
// the search ran to its budgets.
func (a *Analyzer) ClassifyHardware(ctx context.Context, d *Dump, opts ...Option) (HardwareVerdict, error) {
	cfg := a.base
	for _, o := range opts {
		o(&cfg)
	}
	copt, err := cfg.coreOptions(a, d)
	if err != nil {
		return HardwareVerdict{}, err
	}
	return hwerr.ClassifyContext(ctx, a.p, d, copt)
}

// analysisCandidate is one analyzed suffix, faithful when its replay matches.
type analysisCandidate struct {
	node   *core.Node
	syn    *core.Synthesized
	cause  *Cause
	replay *replay.Result
}

// better orders candidates: faithful beats unfaithful, specific beats
// generic, deeper (more context) beats shallower among equals.
func (c *analysisCandidate) better(o *analysisCandidate) bool {
	if c.replay.Matches != o.replay.Matches {
		return c.replay.Matches
	}
	cs, os := specific(c.cause), specific(o.cause)
	if cs != os {
		return cs
	}
	return c.node.Depth > o.node.Depth
}

// b2i lowers a bool to a span attribute value.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// specific reports whether a cause pinpoints something beyond the failure
// site itself (a race, a violated atomicity window, heap corruption).
func specific(c *Cause) bool {
	switch c.Kind {
	case rootcause.DataRace, rootcause.AtomicityViolation,
		rootcause.BufferOverflow, rootcause.UseAfterFree, rootcause.DoubleFree:
		return true
	}
	return false
}

// analyzeNode concretizes, replays and classifies one feasible node.
func analyzeNode(p *Program, eng *core.Engine, n *core.Node, d *Dump) *analysisCandidate {
	syn, err := eng.Concretize(n, d)
	if err != nil {
		return nil
	}
	an, err := rootcause.Analyze(p, syn, d)
	if err != nil || an.Cause == nil {
		return nil
	}
	// Heap checking only adds the two heap faults and hooks only observe,
	// so without a heap fault the instrumented replay ran exactly the
	// blocks a plain replay runs. A heap fault stopped it early: only a
	// plain replay can then say whether the suffix reproduces the dump.
	rr := an.Replay
	if rr.Fault.Kind == coredump.FaultHeapOOB || rr.Fault.Kind == coredump.FaultUseAfterFree {
		if rr, err = replay.Run(p, syn, d, replay.Config{}); err != nil {
			return nil
		}
	}
	if rr.Divergence != nil {
		return nil
	}
	return &analysisCandidate{
		node:   n,
		syn:    syn,
		cause:  an.Cause,
		replay: rr,
	}
}
