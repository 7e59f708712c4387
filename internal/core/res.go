// Package core implements reverse execution synthesis (RES) proper: the
// backward search over candidate (thread, predecessor-block) steps that
// grows an execution suffix from a coredump, exactly as §2 of the paper
// describes. Each search node holds a symbolic snapshot; extending a node
// runs symvm.BackExec for one candidate and keeps the result only when the
// constraint system "executing the candidate from the havocked pre-state
// reproduces the post-state" is satisfiable.
//
// The search is breadth-first in suffix length (the paper wants the
// shortest suffix containing the root cause) with optional beam capping,
// and candidate enumeration supports every edge kind of the execution
// model: straight-line and branch edges, call descent, return edges,
// thread un-spawning, halt unwinding for exited threads, and the base-case
// partial block of the faulting thread.
package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"res/internal/coredump"
	"res/internal/isa"
	"res/internal/mem"
	"res/internal/obs"
	"res/internal/prog"
	"res/internal/solver"
	"res/internal/symstate"
	"res/internal/symvm"
	"res/internal/symx"
)

// StepKind classifies a backward step.
type StepKind uint8

const (
	StepNormal  StepKind = iota
	StepPartial          // the base-case partial block of the faulting thread
	StepSpawn            // un-spawning a child thread
	StepHalt             // unwinding an exited thread's final block
)

func (k StepKind) String() string {
	switch k {
	case StepPartial:
		return "partial"
	case StepSpawn:
		return "spawn"
	case StepHalt:
		return "halt"
	}
	return "normal"
}

// StepRec records one reconstructed step (in backward discovery order; the
// suffix presents them oldest-first).
type StepRec struct {
	Kind           StepKind
	Tid            int // executing thread
	Block          int // block id
	StartPC, EndPC int
	SpawnChild     int
	Inputs         []symvm.InputUse
	Outputs        []symvm.OutputUse
	Accesses       []symvm.MemAccess
}

// Node is one point of the backward search tree.
type Node struct {
	Snap   *symstate.Snapshot
	Parent *Node
	Step   StepRec // the step that produced this node from Parent (zero for root)
	Depth  int     // number of steps from the dump (root partial step = 1)
	// ev holds one evidence cursor per Options.Evidence pruner: the number
	// of that pruner's records this path has consumed. nil when the search
	// runs without evidence.
	ev []int32
	// fp is the snapshot's structural fingerprint, used to deduplicate
	// equivalent frontier nodes before they are expanded.
	fp uint64
}

// Steps returns the node's suffix steps, oldest first. Each node's Step is
// the one that produced it from its parent, and deeper nodes correspond to
// temporally earlier steps, so walking up from the node yields the steps
// already ordered oldest to newest.
func (n *Node) Steps() []StepRec {
	var out []StepRec
	for cur := n; cur.Parent != nil; cur = cur.Parent {
		out = append(out, cur.Step)
	}
	return out
}

// EventKind classifies a search progress event.
type EventKind uint8

const (
	// EventDepth signals that the breadth-first frontier advanced to a new
	// suffix depth.
	EventDepth EventKind = iota
	// EventNode signals one attempted backward step (feasible or not).
	EventNode
	// EventSuffix signals a feasible suffix discovered at Event.Depth.
	EventSuffix
	// EventSolver is a periodic statistics snapshot (every 128 attempts).
	EventSolver
)

func (k EventKind) String() string {
	switch k {
	case EventDepth:
		return "depth"
	case EventNode:
		return "node"
	case EventSuffix:
		return "suffix"
	case EventSolver:
		return "solver"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one progress report from the backward search. Events are
// delivered synchronously on the analyzing goroutine via Options.OnEvent.
type Event struct {
	Kind EventKind
	// Depth is the suffix depth the event concerns.
	Depth int
	// Feasible reports, for EventNode, whether the attempted step was
	// feasible.
	Feasible bool
	// Stats is a snapshot of the cumulative search statistics at the time
	// the event was emitted.
	Stats Stats
}

// PredIndex caches Program.ExecPreds for every block ID, so the backward
// CFG navigation is computed once per program instead of once per search
// node. Build it with BuildPredIndex; it is read-only afterwards and safe
// to share across engines running on different goroutines.
type PredIndex [][]int

// BuildPredIndex precomputes the execution-predecessor sets of every
// block of p.
func BuildPredIndex(p *prog.Program) PredIndex {
	idx := make(PredIndex, p.NumBlocks())
	for id := range idx {
		idx[id] = p.ExecPreds(p.Block(id))
	}
	return idx
}

// Filter vets a candidate backward step before it is attempted (the
// breadcrumb integration point). used is the number of breadcrumb entries
// the path has consumed so far; hasTransfer is false when the candidate's
// terminator produces no LBR record (fallthrough terminators). The filter
// returns whether the candidate is allowed and whether accepting it
// consumes a breadcrumb entry (filtered-LBR modes record only some
// transfer kinds, so not every transfer consumes).
type Filter func(used int, hasTransfer bool, from, to int) (ok, consume bool)

// StepInfo describes one candidate backward step to evidence pruners.
type StepInfo struct {
	Kind StepKind
	// Tid and Block identify the executing thread and the block the
	// candidate step would add to the suffix.
	Tid, Block int
	// ChildDepth is the suffix depth the step's child node would have.
	ChildDepth int
	// HasTransfer is true when the candidate's terminator produces a
	// branch-record entry (jmp/br/call/ret); From/To are the transfer's
	// source pc and destination pc when it does.
	HasTransfer bool
	From, To    int
}

// Child is the view of a feasible backward step handed to Pruner.Constrain:
// the child's symbolic snapshot (pruners may append constraints to it) and
// the OUTPUT records the step executed.
type Child struct {
	Snap    *symstate.Snapshot
	Outputs []symvm.OutputUse
}

// MaxPruners bounds Options.Evidence: per-candidate consume verdicts are
// tracked in a 64-bit mask, one bit per pruner. New panics beyond it;
// the evidence wire format rejects such sets long before they get here.
const MaxPruners = 64

// Pruner is the compiled form of one piece of production evidence (see
// internal/evidence): it prunes the backward search by vetoing candidate
// steps before they are attempted and/or by constraining feasible children
// through the solver. Implementations must be read-only and safe for
// concurrent use — all per-path state lives in the integer cursor the
// engine threads through the search nodes (the count of evidence records
// the path has consumed for this pruner).
type Pruner interface {
	// Filter vets a candidate before BackExec. ok=false prunes the
	// candidate without consuming attempt budget; consume=true advances
	// the cursor on the child this candidate produces.
	Filter(used int, s StepInfo) (ok, consume bool)
	// Constrain runs after a feasible BackExec produced child. It may
	// append constraints to child.Snap; consumed advances the cursor,
	// needCheck requests an incremental solver check of the appended
	// constraints (counted as one solver call), and ok=false rejects the
	// child outright with no solver call (a structural mismatch).
	Constrain(used int, s StepInfo, child *Child) (consumed int, needCheck, ok bool)
}

// Options tunes the analysis.
type Options struct {
	// MaxDepth bounds the suffix length in blocks (including the base-case
	// partial step). Zero means the package default of 24.
	MaxDepth int
	// MaxNodes bounds the total backward-step attempts. Zero = 100000.
	MaxNodes int
	// BeamWidth caps the number of frontier nodes kept per depth;
	// zero = unlimited.
	BeamWidth int
	// Solver tunes the underlying constraint solving.
	Solver solver.Options
	// DisableProbe forwards the symvm ablation knob (see symvm.Options).
	DisableProbe bool
	// Evidence is the ordered list of compiled evidence pruners applied to
	// the search (the internal/evidence integration point; the classic LBR
	// filter and output-log matching are two of them). Order matters: each
	// pruner owns one cursor slot on every node, and cursors participate
	// in frontier deduplication.
	Evidence []Pruner
	// OnSuffix is invoked for every feasible node (depth >= 1). Returning
	// true stops the search. When nil, the search runs to its budgets.
	OnSuffix func(*Node) bool
	// OnEvent, when non-nil, observes search progress. Events are
	// delivered synchronously from the search loop, so handlers must be
	// fast and must not call back into the engine.
	OnEvent func(Event)
	// Preds, when non-nil, is a precomputed execution-predecessor index
	// (BuildPredIndex) shared across analyses of the same program. When
	// nil, predecessors are recomputed on the fly at every node.
	Preds PredIndex
	// Parallelism is the number of candidate backward steps evaluated
	// concurrently within one depth of the search. Values <= 1 run
	// sequentially. Results are bit-identical at any parallelism: every
	// candidate's work is independent, and outcomes are merged in
	// candidate order so statistics, events, suffix discovery order, and
	// early-stop points match the sequential engine exactly.
	Parallelism int
	// Trace, when non-nil, is the parent observability span under which
	// the engine records the search: one "base-case" span, then one
	// "depth" span per frontier depth carrying attempt/feasibility
	// counts and solver time. When the calling goroutine already carries
	// pprof labels (the service's job/program labels), the engine
	// additionally refines them with a depth_band label per band
	// crossed. Tracing adds no behavioral branches — a nil Trace reduces
	// every instrumentation site to a nil check, and the produced Report
	// is identical either way.
	Trace *obs.Span
}

func (o Options) maxDepth() int {
	if o.MaxDepth == 0 {
		return 24
	}
	return o.MaxDepth
}

func (o Options) maxNodes() int {
	if o.MaxNodes == 0 {
		return 100000
	}
	return o.MaxNodes
}

func (o Options) parallelism() int {
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

// Stats aggregates search effort; the experiment harness reports these.
type Stats struct {
	Attempts    int // BackExec invocations
	Feasible    int
	Infeasible  int
	Unknown     int
	SolverCalls int
	MaxDepth    int
}

// Report is the outcome of an analysis.
type Report struct {
	Stats Stats
	// Suffixes holds every feasible node discovered, in discovery order
	// (shortest first). The caller concretizes the ones it cares about.
	Suffixes []*Node
	// Stopped is true if OnSuffix requested the stop.
	Stopped bool
	// Interrupted is set when the search stopped early because its
	// context was canceled or its deadline expired; the report then holds
	// the partial results accumulated up to that point.
	Interrupted bool
	// HardwareSuspect is set when the base case or every depth-1 candidate
	// is infeasible with no Unknowns: no feasible execution ends at this
	// coredump, so the dump is inconsistent with the program — the
	// signature of a hardware error (§3.2).
	HardwareSuspect bool
	// FullReconstruction is set when the search unwound an entire
	// execution back to the program's initial state.
	FullReconstruction *Node
}

// Engine analyzes coredumps of one program. An Engine is NOT safe for
// concurrent use: create one engine per in-flight analysis. Engines of
// the same program may share a read-only Options.Preds index; that is
// what makes per-analysis engine construction cheap.
type Engine struct {
	P    *prog.Program
	opt  Options
	pool *symx.Pool
	// solverOpt is the per-analysis solver tuning: opt.Solver plus the
	// context interrupt and trace observer installed by AnalyzeContext.
	solverOpt solver.Options
	// solverChecks/solverNS accumulate the solver Observe hook's output.
	// Atomic because checks run on the candidate worker pool; only
	// written when tracing is on.
	solverChecks atomic.Int64
	solverNS     atomic.Int64
}

// New creates an engine. It panics when opt.Evidence exceeds MaxPruners
// — a programmer error public callers cannot reach (evidence sets are
// size-checked at decode and compile time).
func New(p *prog.Program, opt Options) *Engine {
	if len(opt.Evidence) > MaxPruners {
		panic(fmt.Sprintf("core: %d evidence pruners exceeds MaxPruners (%d)", len(opt.Evidence), MaxPruners))
	}
	return &Engine{P: p, opt: opt, pool: symx.NewPool(), solverOpt: opt.Solver}
}

// Pool exposes the engine's variable pool (for rendering expressions).
func (e *Engine) Pool() *symx.Pool { return e.pool }

// execPreds returns the execution predecessors of b, consulting the
// precomputed index when one was provided.
func (e *Engine) execPreds(b *prog.Block) []int {
	if e.opt.Preds != nil {
		return e.opt.Preds[b.ID]
	}
	return e.P.ExecPreds(b)
}

// emit delivers a progress event to the observer, if any.
func (e *Engine) emit(k EventKind, depth int, feasible bool, rep *Report) {
	if e.opt.OnEvent == nil {
		return
	}
	e.opt.OnEvent(Event{Kind: k, Depth: depth, Feasible: feasible, Stats: rep.Stats})
}

// Analyze runs the backward search from the dump to its budgets.
func (e *Engine) Analyze(d *coredump.Dump) (*Report, error) {
	return e.AnalyzeContext(context.Background(), d)
}

// AnalyzeContext runs the backward search from the dump under a context.
// Cancellation and deadlines are observed between backward-step attempts
// and inside the solver's search phases, so even analyses stuck deep in
// constraint solving return promptly. On cancellation the partial report
// accumulated so far is returned together with ctx.Err() — callers that
// want best-effort results must not discard the report when the error is
// a context error.
func (e *Engine) AnalyzeContext(ctx context.Context, d *coredump.Dump) (*Report, error) {
	e.solverOpt = e.opt.Solver
	if done := ctx.Done(); done != nil {
		prev := e.opt.Solver.Interrupt
		e.solverOpt.Interrupt = func() bool {
			if prev != nil && prev() {
				return true
			}
			select {
			case <-done:
				return true
			default:
				return false
			}
		}
	}
	labelBands := false
	if e.opt.Trace != nil {
		prevObs := e.opt.Solver.Observe
		e.solverOpt.Observe = func(d time.Duration, v solver.Verdict) {
			if prevObs != nil {
				prevObs(d, v)
			}
			e.solverChecks.Add(1)
			e.solverNS.Add(d.Nanoseconds())
		}
		// Depth-band pprof labels refine the service's per-job labels;
		// when the caller's goroutine carries none (local runs,
		// benchmarks), no profile consumes them, so skip the runtime
		// label churn and restore only what was changed.
		if _, ok := pprof.Label(ctx, "job"); ok {
			labelBands = true
			defer pprof.SetGoroutineLabels(ctx)
		}
	}

	rep := &Report{}
	if err := ctx.Err(); err != nil {
		rep.Interrupted = true
		return rep, err
	}
	var bspan *obs.Span
	if e.opt.Trace != nil {
		bspan = e.opt.Trace.Child("base-case")
	}
	root, err := e.baseCase(d, rep)
	if bspan != nil {
		bspan.SetAttrs(
			obs.Attr{Key: "feasible", Val: boolInt(root != nil)},
			obs.Attr{Key: "solver_calls", Val: int64(rep.Stats.SolverCalls)},
		)
		bspan.End()
	}
	if err != nil {
		return nil, err
	}
	e.emit(EventNode, 1, root != nil, rep)
	if root == nil {
		if err := ctx.Err(); err != nil {
			rep.Interrupted = true
			return rep, err
		}
		// Base case infeasible: the dump's own fault state is inconsistent.
		rep.HardwareSuspect = rep.Stats.Unknown == 0
		return rep, nil
	}

	frontier := []*Node{root}
	if root.Depth >= 1 {
		rep.Suffixes = append(rep.Suffixes, root)
		e.emit(EventSuffix, root.Depth, true, rep)
		if e.opt.OnSuffix != nil && e.opt.OnSuffix(root) {
			rep.Stopped = true
			return rep, nil
		}
	}

	depth1Feasible := 0
	depth1Unknown := 0
	curBand := ""
	for len(frontier) > 0 && rep.Stats.Attempts < e.opt.maxNodes() {
		depth := frontier[0].Depth + 1
		e.emit(EventDepth, depth, false, rep)
		// Open the per-depth trace span and label the goroutine (and the
		// workers runWork spawns, which inherit labels) with the depth
		// band, so CPU profiles attribute time to search depth.
		var dspan *obs.Span
		var att0, feas0, sc0 int
		var checks0, checkNS0, stepNS int64
		if e.opt.Trace != nil {
			dspan = e.opt.Trace.Child("depth")
			dspan.SetInt("depth", int64(depth))
			att0, feas0, sc0 = rep.Stats.Attempts, rep.Stats.Feasible, rep.Stats.SolverCalls
			checks0, checkNS0 = e.solverChecks.Load(), e.solverNS.Load()
			if band := obs.DepthBand(depth); labelBands && band != curBand {
				curBand = band
				pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("depth_band", band)))
			}
		}
		closeDepth := func() {
			if dspan == nil {
				return
			}
			dspan.SetAttrs(
				obs.Attr{Key: "attempts", Val: int64(rep.Stats.Attempts - att0)},
				obs.Attr{Key: "feasible", Val: int64(rep.Stats.Feasible - feas0)},
				obs.Attr{Key: "solver_calls", Val: int64(rep.Stats.SolverCalls - sc0)},
				obs.Attr{Key: "solver_checks", Val: e.solverChecks.Load() - checks0},
				obs.Attr{Key: "solver_ns", Val: e.solverNS.Load() - checkNS0},
				obs.Attr{Key: "step_ns", Val: stepNS},
			)
			dspan.End()
		}
		// Enumerate this depth's candidate work up front (budget- and
		// filter-aware, deduplicating fingerprint-identical frontier
		// nodes), optionally fan the per-candidate BackExec+check work
		// across workers, then merge outcomes in candidate order so the
		// result is bit-identical to a sequential pass.
		work := e.buildWork(frontier, rep)
		results := e.runWork(ctx, work, d)
		var next []*Node
		for i := range work {
			it := &work[i]
			if err := ctx.Err(); err != nil {
				rep.Interrupted = true
				closeDepth()
				return rep, err
			}
			var out stepOut
			switch {
			case !it.filterOK:
				out = stepOut{verdict: symvm.Infeasible}
			case results != nil && results[i].computed:
				out = results[i]
			default:
				// Sequential mode (or a worker skipped by cancellation):
				// compute lazily, so an early stop attempts exactly what
				// the seed engine would have.
				out = e.tryStep(it.node, it.cand, it.consumeMask, d)
			}
			if it.filterOK {
				rep.Stats.Attempts++
				rep.Stats.SolverCalls += out.solverCalls
				stepNS += out.durNS
				switch out.verdict {
				case symvm.Feasible:
					rep.Stats.Feasible++
				case symvm.Infeasible:
					rep.Stats.Infeasible++
				default:
					rep.Stats.Unknown++
				}
			}
			e.emit(EventNode, it.node.Depth+1, out.verdict == symvm.Feasible, rep)
			if rep.Stats.Attempts%128 == 0 {
				e.emit(EventSolver, it.node.Depth+1, false, rep)
			}
			switch out.verdict {
			case symvm.Feasible:
				if it.node == root || it.node.Depth == 0 {
					depth1Feasible++
				}
				child := out.child
				if child.Depth > rep.Stats.MaxDepth {
					rep.Stats.MaxDepth = child.Depth
				}
				rep.Suffixes = append(rep.Suffixes, child)
				e.emit(EventSuffix, child.Depth, true, rep)
				if e.opt.OnSuffix != nil && e.opt.OnSuffix(child) {
					rep.Stopped = true
					closeDepth()
					return rep, nil
				}
				if full := e.checkFullReconstruction(child); full {
					rep.FullReconstruction = child
					closeDepth()
					return rep, nil
				}
				next = append(next, child)
			case symvm.Unknown:
				if it.node == root || it.node.Depth == 0 {
					depth1Unknown++
				}
			}
		}
		if e.opt.BeamWidth > 0 && len(next) > e.opt.BeamWidth {
			next = next[:e.opt.BeamWidth]
		}
		closeDepth()
		frontier = next
	}
	if err := ctx.Err(); err != nil {
		rep.Interrupted = true
		return rep, err
	}
	if len(rep.Suffixes) == 0 && depth1Feasible == 0 && depth1Unknown == 0 {
		rep.HardwareSuspect = true
	}
	return rep, nil
}

// baseCase builds the root node. For a thread fault it executes the
// partial final block of the faulting thread with the fault condition as
// an extra constraint; for global faults (deadlock, budget) the root is
// the dump itself at depth 0.
func (e *Engine) baseCase(d *coredump.Dump, rep *Report) (*Node, error) {
	snap := symstate.FromDump(d, e.P.Layout.HeapBase, e.pool)
	// Seed the incremental solver session at the root: every descendant
	// snapshot extends it with only the constraints its own step added.
	snap.AttachSession(e.solverOpt)
	if d.Fault.Thread < 0 {
		return &Node{Snap: snap, ev: e.rootCursors(), fp: snap.Fingerprint()}, nil
	}
	t, err := d.Thread(d.Fault.Thread)
	if err != nil {
		return nil, err
	}
	if t.PC != d.Fault.PC {
		return nil, fmt.Errorf("core: dump thread pc %d disagrees with fault pc %d", t.PC, d.Fault.PC)
	}
	block, err := e.P.BlockAt(d.Fault.PC)
	if err != nil {
		return nil, err
	}
	req := symvm.Req{
		P:          e.P,
		Post:       snap,
		Tid:        d.Fault.Thread,
		StartPC:    block.Start,
		EndPC:      d.Fault.PC,
		Partial:    true,
		SpawnChild: -1,
		FaultCons:  e.faultCons(d),
	}
	res := symvm.BackExec(req, symvm.Options{Solver: e.solverOpt, DisableProbe: e.opt.DisableProbe})
	rep.Stats.Attempts++
	rep.Stats.SolverCalls += res.SolverCalls
	switch res.Verdict {
	case symvm.Feasible:
		rep.Stats.Feasible++
	case symvm.Infeasible:
		rep.Stats.Infeasible++
		return nil, nil
	default:
		rep.Stats.Unknown++
		return nil, nil
	}
	node := &Node{
		Snap:  res.Pre,
		Step:  StepRec{Kind: StepPartial, Tid: d.Fault.Thread, Block: block.ID, StartPC: block.Start, EndPC: d.Fault.PC, Inputs: res.Inputs, Outputs: res.Outputs, Accesses: res.Accesses},
		Depth: 1,
		ev:    e.rootCursors(),
		fp:    res.Pre.Fingerprint(),
	}
	node.Parent = &Node{Snap: snap} // sentinel root so Steps() includes the partial step
	rep.Stats.MaxDepth = 1
	return node, nil
}

// faultCons translates the dump's fault descriptor into constraints over
// the register state at the faulting instruction: the reconstructed
// execution must fault in exactly the observed way.
func (e *Engine) faultCons(d *coredump.Dump) func([isa.NumRegs]*symx.Expr) []solver.Constraint {
	in := &e.P.Code[d.Fault.PC]
	kind := d.Fault.Kind
	addr := int64(d.Fault.Addr)
	return func(regs [isa.NumRegs]*symx.Expr) []solver.Constraint {
		switch kind {
		case coredump.FaultNullDeref, coredump.FaultOOB, coredump.FaultHeapOOB, coredump.FaultUseAfterFree:
			var addrExpr *symx.Expr
			switch in.Op {
			case isa.OpLoad, isa.OpStore:
				addrExpr = symx.Binary(symx.OpAdd, regs[in.Rs1], symx.Const(in.Imm))
			case isa.OpLoadG, isa.OpStoreG:
				addrExpr = symx.Const(in.Imm)
			case isa.OpLock, isa.OpUnlock, isa.OpFree:
				addrExpr = regs[in.Rs1]
			case isa.OpRet, isa.OpCall:
				addrExpr = regs[isa.SP]
				if in.Op == isa.OpCall {
					addrExpr = symx.Binary(symx.OpAdd, addrExpr, symx.Const(-1))
				}
			default:
				return nil
			}
			if kind == coredump.FaultOOB {
				// The recorded address is truncated to 32 bits; constrain
				// only when it is representable.
				return []solver.Constraint{solver.Eq(symx.Binary(symx.OpAnd, addrExpr, symx.Const(0xffffffff)), symx.Const(addr))}
			}
			return []solver.Constraint{solver.Eq(addrExpr, symx.Const(addr))}
		case coredump.FaultDivByZero:
			return []solver.Constraint{solver.Eq(regs[in.Rs2], symx.Const(0))}
		case coredump.FaultAssert:
			return []solver.Constraint{solver.Falsy(regs[in.Rs1])}
		}
		return nil
	}
}

// candidate describes one backward-step possibility.
type candidate struct {
	kind       StepKind
	tid        int
	block      *prog.Block
	spawnChild int
	// transfer info for LBR pruning
	hasTransfer bool
	from, to    int
}

// candidates enumerates the backward steps possible from a node.
func (e *Engine) candidates(n *Node) []candidate {
	var out []candidate
	maxTid := n.Snap.MaxThreadID()
	for _, tid := range n.Snap.ThreadIDs() {
		t := n.Snap.Thread(tid)
		switch t.State {
		case coredump.ThreadExited:
			block, err := e.P.BlockAt(t.PC)
			if err != nil || block.End-1 != t.PC {
				continue
			}
			if e.P.Code[t.PC].Op != isa.OpHalt {
				continue
			}
			out = append(out, candidate{kind: StepHalt, tid: tid, block: block, spawnChild: -1})
		case coredump.ThreadRunnable, coredump.ThreadBlocked:
			cur, err := e.P.BlockAt(t.PC)
			if err != nil || cur.Start != t.PC {
				continue
			}
			for _, pid := range e.execPreds(cur) {
				pred := e.P.Block(pid)
				term := pred.Terminator(e.P.Code)
				termPC := pred.End - 1
				switch term.Op {
				case isa.OpSpawn:
					if term.Target == cur.Start && pred.End != cur.Start {
						// tid is the child at its entry: a spawn by some
						// other thread parked right after the spawn block.
						if tid != maxTid {
							continue
						}
						for _, ptid := range n.Snap.ThreadIDs() {
							if ptid == tid {
								continue
							}
							pt := n.Snap.Thread(ptid)
							if pt.State == coredump.ThreadExited || pt.PC != pred.End {
								continue
							}
							out = append(out, candidate{kind: StepSpawn, tid: ptid, block: pred, spawnChild: tid})
						}
						continue
					}
					// Fallthrough edge: tid itself executed the spawn and
					// continued; the child it created must be unwindable.
					child := maxTid
					if child == tid {
						continue
					}
					ct := n.Snap.Thread(child)
					if ct == nil || ct.PC != term.Target {
						continue
					}
					out = append(out, candidate{kind: StepSpawn, tid: tid, block: pred, spawnChild: child})
				case isa.OpJmp, isa.OpBr:
					out = append(out, candidate{kind: StepNormal, tid: tid, block: pred, spawnChild: -1, hasTransfer: true, from: termPC, to: cur.Start})
				case isa.OpCall:
					out = append(out, candidate{kind: StepNormal, tid: tid, block: pred, spawnChild: -1, hasTransfer: true, from: termPC, to: cur.Start})
				case isa.OpRet:
					out = append(out, candidate{kind: StepNormal, tid: tid, block: pred, spawnChild: -1, hasTransfer: true, from: termPC, to: cur.Start})
				default:
					// Fallthrough terminators (yield, lock) produce no LBR
					// record.
					out = append(out, candidate{kind: StepNormal, tid: tid, block: pred, spawnChild: -1})
				}
			}
		}
	}
	return out
}

// workItem pairs a frontier node with one enumerated candidate, plus the
// evidence filters' verdict, evaluated at enumeration time so the
// budget cut and the parallel fan-out agree with sequential order.
type workItem struct {
	node     *Node
	cand     candidate
	filterOK bool
	// consumeMask has bit i set when Evidence[i].Filter consumed a record
	// for this candidate (applied to the child's cursor on success).
	consumeMask uint64
}

// rootCursors allocates the zeroed evidence-cursor vector for a root
// node, or nil when the search runs without evidence.
func (e *Engine) rootCursors() []int32 {
	if len(e.opt.Evidence) == 0 {
		return nil
	}
	return make([]int32, len(e.opt.Evidence))
}

// stepInfo describes a candidate to the evidence pruners.
func stepInfo(n *Node, c candidate) StepInfo {
	return StepInfo{
		Kind:        c.kind,
		Tid:         c.tid,
		Block:       c.block.ID,
		ChildDepth:  n.Depth + 1,
		HasTransfer: c.hasTransfer,
		From:        c.from,
		To:          c.to,
	}
}

// stepOut is the outcome of one attempted backward step.
type stepOut struct {
	child       *Node
	verdict     symvm.Verdict
	solverCalls int
	computed    bool
	// durNS is the wall time tryStep spent on this attempt (BackExec +
	// evidence constraining + incremental checks). Only measured when
	// tracing is on; merged into the depth span in candidate order.
	durNS int64
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// buildWork enumerates this depth's candidate attempts in frontier order,
// applying the depth bound, the attempt budget (filtered candidates do
// not consume budget, exactly as the sequential loop counts), and
// fingerprint deduplication: a frontier node whose snapshot is
// structurally identical to an earlier node of the same depth — with the
// same evidence cursors, which govern how descendants are filtered —
// expands to an isomorphic subtree, so only the first is expanded (the
// dropped twin itself was already reported as a suffix).
func (e *Engine) buildWork(frontier []*Node, rep *Report) []workItem {
	var work []workItem
	att := rep.Stats.Attempts
	max := e.opt.maxNodes()
	seen := make(map[uint64]bool, len(frontier))
	for _, node := range frontier {
		if node.Depth >= e.opt.maxDepth() {
			continue
		}
		if att >= max {
			break
		}
		key := node.fp
		for _, u := range node.ev {
			key = symx.MixHash(key, uint64(u))
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		for _, cand := range e.candidates(node) {
			if att >= max {
				break
			}
			it := workItem{node: node, cand: cand, filterOK: true}
			if len(e.opt.Evidence) > 0 {
				info := stepInfo(node, cand)
				for i, pr := range e.opt.Evidence {
					ok, consume := pr.Filter(int(node.ev[i]), info)
					if !ok {
						it.filterOK = false
						break
					}
					if consume {
						it.consumeMask |= 1 << i
					}
				}
			}
			if it.filterOK {
				att++
			}
			work = append(work, it)
		}
	}
	return work
}

// runWork fans the candidate attempts across a bounded worker pool and
// collects results by candidate index. In sequential mode (parallelism
// <= 1) it returns nil and the merge loop computes lazily, so early stops
// attempt exactly what the sequential engine would.
func (e *Engine) runWork(ctx context.Context, work []workItem, d *coredump.Dump) []stepOut {
	workers := e.opt.parallelism()
	if workers > len(work) {
		workers = len(work)
	}
	if workers <= 1 || len(work) < 2 {
		return nil
	}
	results := make([]stepOut, len(work))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil || !work[i].filterOK {
					continue
				}
				results[i] = e.tryStep(work[i].node, work[i].cand, work[i].consumeMask, d)
				results[i].computed = true
			}
		}()
	}
	for i := range work {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// tryStep runs one backward step and builds the child node on success. It
// does not touch the engine or the report, so distinct candidates may run
// concurrently; the merge loop applies the returned statistics in
// candidate order. When tracing, the attempt's wall time is measured
// here — a plain wrapper, not a defer, because the closure a deferred
// measurement allocates per attempt is itself measurable search
// overhead.
func (e *Engine) tryStep(n *Node, c candidate, consumeMask uint64, d *coredump.Dump) stepOut {
	if e.opt.Trace == nil {
		return e.stepOnce(n, c, consumeMask, d)
	}
	t0 := time.Now()
	out := e.stepOnce(n, c, consumeMask, d)
	out.durNS = time.Since(t0).Nanoseconds()
	return out
}

// stepOnce is tryStep without the timing shell.
func (e *Engine) stepOnce(n *Node, c candidate, consumeMask uint64, d *coredump.Dump) (out stepOut) {
	req := symvm.Req{
		P:          e.P,
		Post:       n.Snap,
		Tid:        c.tid,
		StartPC:    c.block.Start,
		EndPC:      c.block.End,
		SpawnChild: c.spawnChild,
		HaltStep:   c.kind == StepHalt,
	}
	res := symvm.BackExec(req, symvm.Options{Solver: e.solverOpt, DisableProbe: e.opt.DisableProbe})
	out = stepOut{verdict: res.Verdict, solverCalls: res.SolverCalls}
	if res.Verdict != symvm.Feasible {
		return out
	}
	child := &Node{
		Snap:   res.Pre,
		Parent: n,
		Depth:  n.Depth + 1,
		Step: StepRec{
			Kind: c.kind, Tid: c.tid, Block: c.block.ID,
			StartPC: c.block.Start, EndPC: c.block.End,
			SpawnChild: c.spawnChild,
			Inputs:     res.Inputs, Outputs: res.Outputs, Accesses: res.Accesses,
		},
	}
	// Evidence: advance the filter-consumed cursors, then let each pruner
	// constrain the child (output matching, memory probes, ...). Each
	// needCheck propagates only the constraints appended since the last
	// check, on top of the child's incremental session.
	if len(e.opt.Evidence) > 0 {
		child.ev = append([]int32(nil), n.ev...)
		for i := range e.opt.Evidence {
			if consumeMask&(1<<i) != 0 {
				child.ev[i]++
			}
		}
		info := stepInfo(n, c)
		view := &Child{Snap: child.Snap, Outputs: res.Outputs}
		for i, pr := range e.opt.Evidence {
			consumed, needCheck, ok := pr.Constrain(int(child.ev[i]), info, view)
			if !ok {
				out.verdict = symvm.Infeasible
				return out
			}
			child.ev[i] += int32(consumed)
			if needCheck {
				chk := child.Snap.Check(e.solverOpt)
				out.solverCalls++
				if chk.Verdict == solver.Unsat {
					out.verdict = symvm.Infeasible
					return out
				}
			}
		}
	}
	child.fp = child.Snap.Fingerprint()
	out.child = child
	return out
}

// checkFullReconstruction reports whether the node has unwound the whole
// execution: only the main thread remains, parked at the program entry,
// and the snapshot is consistent with the initial machine state.
func (e *Engine) checkFullReconstruction(n *Node) bool {
	ids := n.Snap.ThreadIDs()
	if len(ids) != 1 || ids[0] != 0 {
		return false
	}
	entry, err := e.P.Entry()
	if err != nil {
		return false
	}
	t := n.Snap.Thread(0)
	if t.PC != entry {
		return false
	}
	// Initial state: zero registers (sp = stack top), memory = zeros plus
	// global initializers.
	init := mem.NewImage(e.P.Layout.MemSize)
	for _, g := range e.P.Globals {
		for i, val := range g.Init {
			init.Store(g.Addr+uint32(i), val)
		}
	}
	var extra []solver.Constraint
	for r := 0; r < isa.NumRegs; r++ {
		want := int64(0)
		if isa.Reg(r) == isa.SP {
			want = int64(e.P.Layout.StackTop(0))
		}
		extra = append(extra, solver.Eq(t.Regs[r], symx.Const(want)))
	}
	n.Snap.ForEachMem(func(a uint32, _ *symx.Expr) {
		extra = append(extra, solver.Eq(n.Snap.MemAt(a), symx.Const(init.Load(a))))
	})
	res := n.Snap.CheckWith(e.solverOpt, extra)
	return res.Verdict == solver.Sat
}
