package main

import (
	"context"
	"sync/atomic"
	"time"

	"res/internal/checkpoint"
	"res/internal/core"
	"res/internal/coredump"
	"res/internal/evidence"
	"res/internal/prog"
	"res/internal/replay"
	"res/internal/rootcause"
	"res/internal/solver"
	"res/internal/taint"
)

// opTrace holds one operation's spans, recorded by the benchmark around
// its own calls into each module. Span 0 is the operation.
type opTrace struct{ spans []span }

func (t *opTrace) begin(layer string, parent int) int {
	t.spans = append(t.spans, span{Layer: layer, Parent: parent, Start: time.Now()})
	return len(t.spans) - 1
}

func (t *opTrace) end(i int) { t.spans[i].End = time.Now() }

// Depth bands of core.step_us.
var stepBands = []string{"d1-8", "d9-32", "d33-up"}

func stepBand(depth int) int {
	switch {
	case depth <= 8:
		return 0
	case depth <= 32:
		return 1
	}
	return 2
}

// libCounts accumulates what the traced library path counts: search
// effort, solver decisions, replays, bisection probes, and per-band
// search wall time per attempt.
type libCounts struct {
	ops           int
	attempts      int
	feasible      int
	depthMax      int
	solverChecks  atomic.Int64
	solverUnknown atomic.Int64
	solverNS      atomic.Int64
	replayRuns    int
	replayMatches int
	verifies      int
	pruners       int
	ringOps       int
	anchored      int
	bandWall      [3]time.Duration
	bandAttempts  [3]int
}

// observe is the solver.Options.Observe hook; workers call it
// concurrently.
func (c *libCounts) observe(d time.Duration, v solver.Verdict) {
	c.solverChecks.Add(1)
	c.solverNS.Add(int64(d))
	if v == solver.Unknown {
		c.solverUnknown.Add(1)
	}
}

// depthClock splits the search's wall time by depth from the engine's
// depth events: the time from one depth event to the next, less the
// time spent in OnSuffix (cause extraction), is the search wall of that
// depth's attempts. Events and OnSuffix both run on the merging
// goroutine, so the clock needs no locking.
type depthClock struct {
	c      *libCounts
	open   bool
	depth  int
	start  time.Time
	att0   int
	suffix time.Duration
}

func (dc *depthClock) onEvent(ev core.Event) {
	if ev.Kind != core.EventDepth {
		return
	}
	now := time.Now()
	dc.close(now, ev.Stats.Attempts)
	dc.open, dc.depth, dc.start, dc.att0, dc.suffix = true, ev.Depth, now, ev.Stats.Attempts, 0
}

func (dc *depthClock) close(now time.Time, attempts int) {
	if !dc.open {
		return
	}
	b := stepBand(dc.depth)
	dc.c.bandWall[b] += now.Sub(dc.start) - dc.suffix
	dc.c.bandAttempts[b] += attempts - dc.att0
	dc.open = false
}

// stagedAnalysis drives one analysis through the library's stages itself,
// in the order analyzer.go runs them — evidence compile, checkpoint
// bisection and the anchor ladder, the core search whose OnSuffix
// concretizes, replays and classifies each feasible suffix, then taint —
// timing each call from the benchmark. Its answer must equal
// res.Analyzer.Analyze's on the same input; the caller checks the cause
// key.
type stagedAnalysis struct {
	p           *prog.Program
	preds       core.PredIndex
	maxDepth    int
	parallelism int
	sources     evidence.Set
	ring        *checkpoint.Ring
	tr          *opTrace
	c           *libCounts
}

// candidate is a classified feasible suffix (analyzer.go's
// analysisCandidate).
type candidate struct {
	depth    int
	syn      *core.Synthesized
	cause    *rootcause.Cause
	faithful bool
	anchored bool
}

func (c *candidate) better(o *candidate) bool {
	if c.faithful != o.faithful {
		return c.faithful
	}
	if cs, os := specific(c.cause), specific(o.cause); cs != os {
		return cs
	}
	return c.depth > o.depth
}

func specific(c *rootcause.Cause) bool {
	switch c.Kind {
	case rootcause.DataRace, rootcause.AtomicityViolation,
		rootcause.BufferOverflow, rootcause.UseAfterFree, rootcause.DoubleFree:
		return true
	}
	return false
}

// anchorStep pairs a checkpoint with its anchor (nil = plain search).
type anchorStep struct {
	ck     *checkpoint.Checkpoint
	anchor checkpoint.Anchor
}

// analyze returns the winning candidate (nil when no suffix yielded a
// cause).
func (s *stagedAnalysis) analyze(ctx context.Context, d *coredump.Dump) (*candidate, error) {
	s.c.ops++
	if s.ring == nil || s.ring.Empty() {
		return s.run(ctx, d, nil)
	}
	s.c.ringOps++
	best, err := s.checkpointed(ctx, d)
	if best != nil && best.anchored {
		s.c.anchored++
	}
	return best, err
}

// checkpointed mirrors analyzer.go's escalation ladder: anchored at the
// bisected checkpoint, then the next-earlier one, then plain.
func (s *stagedAnalysis) checkpointed(ctx context.Context, d *coredump.Dump) (*candidate, error) {
	b := s.tr.begin("checkpoint.bisect", 0)
	ck, verified := s.ring.BisectObserved(s.p, d, func(*checkpoint.Checkpoint, time.Duration, bool) { s.c.verifies++ })
	if ck == nil {
		s.tr.end(b)
		return s.run(ctx, d, nil)
	}
	ladder := []*anchorStep{{ck: ck, anchor: checkpoint.NewAnchor(ck, d.Steps, verified)}}
	if prev := s.ring.EarlierThan(ck.Step, d.Steps); prev != nil {
		pv := s.ring.Verify(s.p, prev, d)
		s.c.verifies++
		ladder = append(ladder, &anchorStep{ck: prev, anchor: checkpoint.NewAnchor(prev, d.Steps, pv)})
	}
	s.tr.end(b)
	ladder = append(ladder, nil)
	var prev *candidate
	for i, sa := range ladder {
		best, err := s.run(ctx, d, sa)
		if err != nil {
			return best, err
		}
		last := i == len(ladder)-1
		if best != nil && best.faithful {
			switch {
			case specific(best.cause):
				return best, nil
			case prev != nil && prev.cause.Key() == best.cause.Key():
				return prev, nil
			case last:
				return best, nil
			}
			prev = best
			continue
		}
		if last {
			if best == nil && prev != nil {
				return prev, nil
			}
			return best, nil
		}
		prev = nil
	}
	panic("unreachable")
}

// run is one search (analyzer.go's runAnalysis), anchored when sa is set.
func (s *stagedAnalysis) run(ctx context.Context, d *coredump.Dump, sa *anchorStep) (*candidate, error) {
	e := s.tr.begin("evidence.compile", 0)
	pruners, err := s.sources.Compile(s.p, d)
	s.tr.end(e)
	if err != nil {
		return nil, err
	}
	s.c.pruners += len(pruners)
	dc := &depthClock{c: s.c}
	copt := core.Options{
		MaxDepth:    s.maxDepth,
		Preds:       s.preds,
		Parallelism: s.parallelism,
		Evidence:    pruners,
		Solver:      solver.Options{Observe: s.c.observe},
		OnEvent:     dc.onEvent,
	}
	if sa != nil {
		copt.MaxDepth = sa.anchor.Depth
		copt.Evidence = append(copt.Evidence, sa.anchor.Pruner(sa.ck))
	}
	sp := s.tr.begin("core.search", 0)
	var (
		eng     *core.Engine
		best    *candidate
		stopErr error
	)
	copt.OnSuffix = func(n *core.Node) bool {
		if err := ctx.Err(); err != nil {
			stopErr = err
			return true
		}
		t0 := time.Now()
		cand := s.classify(eng, n, d, sp)
		dc.suffix += time.Since(t0)
		if cand == nil {
			return false
		}
		cand.anchored = sa != nil
		if best == nil || cand.better(best) {
			best = cand
		}
		return cand.faithful && specific(cand.cause)
	}
	eng = core.New(s.p, copt)
	rep, err := eng.AnalyzeContext(ctx, d)
	if rep != nil {
		dc.close(time.Now(), rep.Stats.Attempts)
	}
	s.tr.end(sp)
	if rep == nil {
		return nil, err
	}
	s.c.attempts += rep.Stats.Attempts
	s.c.feasible += rep.Stats.Feasible
	if rep.Stats.MaxDepth > s.c.depthMax {
		s.c.depthMax = rep.Stats.MaxDepth
	}
	if best != nil {
		t := s.tr.begin("taint", 0)
		taint.Analyze(s.p, best.syn, d)
		s.tr.end(t)
	}
	if err == nil {
		err = stopErr
	}
	return best, err
}

// classify concretizes, replays and classifies one feasible node
// (analyzer.go's analyzeNode), each call under its own span.
func (s *stagedAnalysis) classify(eng *core.Engine, n *core.Node, d *coredump.Dump, parent int) *candidate {
	i := s.tr.begin("core.concretize", parent)
	syn, err := eng.Concretize(n, d)
	s.tr.end(i)
	if err != nil {
		return nil
	}
	i = s.tr.begin("replay", parent)
	rr, err := replay.Run(s.p, syn, d, replay.Config{})
	s.tr.end(i)
	s.c.replayRuns++
	if err != nil || rr.Divergence != nil {
		return nil
	}
	if rr.Matches {
		s.c.replayMatches++
	}
	i = s.tr.begin("rootcause", parent)
	an, err := rootcause.Analyze(s.p, syn, d)
	s.tr.end(i)
	if err != nil || an.Cause == nil {
		return nil
	}
	return &candidate{depth: n.Depth, syn: syn, cause: an.Cause, faithful: rr.Matches && an.Faithful}
}
