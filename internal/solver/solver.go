// Package solver implements the constraint solver behind RES's symbolic
// snapshots. It decides satisfiability of conjunctions of relational
// constraints over symx expressions and produces concrete models, which
// RES uses both for the compatibility check S' ⊇ Spost ("is there any
// pre-state for which this block produces the observed post-state?") and
// for concretizing the inferred pre-image Mi before replay.
//
// The pipeline is: simplification → equality propagation with exact
// arithmetic inversion (addition, xor, negation, complement, and
// multiplication via modular inverses) and comparison decomposition →
// interval propagation → bounded enumeration and seeded randomized
// completion. Verdicts are three-valued; Unsat and Sat are sound (Sat
// verdicts always carry a model that has been checked against the
// original constraints), Unknown is the honest fallback.
//
// A check costs the constraints it adds. A propagated state keeps its
// bindings, intervals and definitions in two levels: a base it shares
// read-only with the session it forked from, and its own writes. A check
// copies only the own level, and a session that keeps a state folds that
// level into a fresh base once it outgrows a fixed share of the base, so
// a read stays at two probes. A fold builds new maps; no map is written
// once another state, Result or model can read it.
//
// A Result costs what its reader reads. Result.Forced looks a variable
// up in the solved state's bindings. The model is resolved on demand:
// Result.Eval resolves only the variables of one expression,
// Result.Evaluator does the same for many expressions over one memo,
// Result.Model builds the whole assignment, and the Sat recheck resolves
// the variables of the constraints it checks, all by one rule and to the
// same values.
//
// The search runs where its answer is read, and each try is cheap. The
// residue is compiled once per search into an instruction list over a
// slot array whose first slots hold the try, so a try writes no map and
// walks no tree; only the model found becomes a symx.Model. A check whose
// caller reads only whether it is Unsat (Session.RefuteWith and
// ExtendRefute) searches only a residue a search could refute, one whose
// every variable lies in an interval of at most two values; any other
// residue is Unknown, "not searched". A session remembers the outcome of
// the full check that built it, and a check that adds nothing under the
// same search options returns that outcome instead of searching again.
package solver

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"time"

	"res/internal/symx"
)

// Rel is a relational operator between two expressions.
type Rel uint8

const (
	RelEq Rel = iota
	RelNe
	RelLt // signed
	RelLe // signed
)

func (r Rel) String() string {
	switch r {
	case RelEq:
		return "=="
	case RelNe:
		return "!="
	case RelLt:
		return "<"
	case RelLe:
		return "<="
	}
	return fmt.Sprintf("rel(%d)", uint8(r))
}

// Constraint asserts L Rel R.
type Constraint struct {
	L, R *symx.Expr
	Rel  Rel
}

func (c Constraint) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Rel, c.R)
}

// Eq, Ne, Lt, Le build constraints.
func Eq(l, r *symx.Expr) Constraint { return Constraint{L: l, R: r, Rel: RelEq} }
func Ne(l, r *symx.Expr) Constraint { return Constraint{L: l, R: r, Rel: RelNe} }
func Lt(l, r *symx.Expr) Constraint { return Constraint{L: l, R: r, Rel: RelLt} }
func Le(l, r *symx.Expr) Constraint { return Constraint{L: l, R: r, Rel: RelLe} }

// Truthy asserts that e is non-zero (a taken branch condition).
func Truthy(e *symx.Expr) Constraint { return Ne(e, symx.Const(0)) }

// Falsy asserts that e is zero (a fall-through branch condition).
func Falsy(e *symx.Expr) Constraint { return Eq(e, symx.Const(0)) }

// Holds evaluates the constraint under a model. The bool result is false
// on evaluation failure (division by zero).
func (c Constraint) Holds(m symx.Model) (bool, bool) {
	a, ok := c.L.Eval(m)
	if !ok {
		return false, false
	}
	b, ok := c.R.Eval(m)
	if !ok {
		return false, false
	}
	return relHolds(c.Rel, a, b)
}

func relHolds(rel Rel, a, b int64) (bool, bool) {
	switch rel {
	case RelEq:
		return a == b, true
	case RelNe:
		return a != b, true
	case RelLt:
		return a < b, true
	case RelLe:
		return a <= b, true
	}
	return false, false
}

// Verdict is the solver's three-valued answer.
type Verdict uint8

const (
	Unknown Verdict = iota
	Sat
	Unsat
)

func (v Verdict) String() string {
	switch v {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Options tunes solver effort.
type Options struct {
	// MaxEnum bounds the total models tried during enumeration.
	MaxEnum int
	// RandomTries bounds the randomized completion phase.
	RandomTries int
	// Seed drives the randomized phase deterministically.
	Seed int64
	// Interrupt, when non-nil, is polled periodically during the search
	// phases; once it returns true the solver abandons the remaining
	// budget and reports Unknown ("interrupted"). Verdicts reached before
	// the interrupt fires (including propagation-derived Unsat) are
	// unaffected, so interruption never makes the solver unsound — only
	// less complete. This is how context cancellation reaches the deepest
	// loops of an analysis.
	Interrupt func() bool
	// Observe, when non-nil, is invoked once per top-level solver
	// decision (Check, Session.CheckWith, Session.Extend) with the wall
	// time the decision took and its verdict. It is the observability
	// hook: the search engine wires it to its trace spans. Observers are
	// called from whatever goroutine runs the check and must be
	// concurrency-safe and fast. A nil Observe costs nothing — not even
	// a clock read.
	Observe func(d time.Duration, v Verdict)
}

// DefaultOptions returns the tuning used throughout the repo.
func DefaultOptions() Options {
	return Options{MaxEnum: 1 << 16, RandomTries: 4096, Seed: 1}
}

// Result carries the verdict, a model when Sat, and effort statistics.
type Result struct {
	Verdict Verdict
	// NewlyForced lists the variables Forced reports that this check
	// bound, in the order propagation bound them: for a Session check, the
	// ones its base did not already bind; for Check, all of them.
	NewlyForced []symx.Var
	// Stats
	PropagationRounds int
	ModelsTried       int
	Reason            string // human-readable explanation for Unsat/Unknown

	forced layered[int64] // the checked state's bindings
	model  *model         // the Sat assignment, resolved where it is read
}

// Forced reports the value propagation bound v to, if it did. A forced
// value is a logical consequence of the constraint set (derived by
// propagation, not search): unlike a model value it holds in EVERY
// satisfying assignment, so a caller may substitute it without losing
// solutions. Nothing is forced for an Unsat verdict.
func (r Result) Forced(v symx.Var) (int64, bool) {
	return r.forced.get(v)
}

// Model returns the satisfying assignment of a Sat result, nil otherwise.
// It is built on each call; a caller that reads a few values should use
// Eval, which resolves only the variables it needs to the same values.
func (r Result) Model() symx.Model {
	if r.model == nil {
		return nil
	}
	return r.model.full()
}

// Eval evaluates e under the satisfying assignment (a variable it does
// not assign reads 0), resolving only the variables e mentions. ok is
// false when the verdict is not Sat or the evaluation divides by zero.
func (r Result) Eval(e *symx.Expr) (int64, bool) {
	if r.model == nil {
		return 0, false
	}
	rv := resolver{m: r.model}
	return rv.eval(e, -1)
}

// Evaluator returns Eval for a reader of many expressions: the function
// it returns remembers the definitions it has resolved across calls, so
// a definition that several expressions share is resolved once. It is nil
// when the verdict is not Sat, and not safe for concurrent use.
func (r Result) Evaluator() func(*symx.Expr) (int64, bool) {
	if r.model == nil {
		return nil
	}
	rv := &resolver{m: r.model}
	return func(e *symx.Expr) (int64, bool) { return rv.eval(e, -1) }
}

// normalize fills zero option fields with the package defaults.
func (o Options) normalize() Options {
	def := DefaultOptions()
	if o.MaxEnum == 0 {
		o.MaxEnum = def.MaxEnum
	}
	if o.RandomTries == 0 {
		o.RandomTries = def.RandomTries
	}
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	return o
}

// Check decides the conjunction of cs. Zero-valued option fields take the
// package defaults, so Check(cs, Options{}) is meaningful.
func Check(cs []Constraint, opt Options) Result {
	var t0 time.Time
	if opt.Observe != nil {
		t0 = time.Now()
	}
	s := &state{opt: opt.normalize()}
	for _, c := range cs {
		s.pending = append(s.pending, c)
	}
	res := finishResult(s, s.solve(false), cs)
	if opt.Observe != nil {
		opt.Observe(time.Since(t0), res.Verdict)
	}
	return res
}

// finishResult attaches the forced bindings and applies the model safety
// net: a Sat verdict must satisfy recheck, the constraints the caller can
// vouch for. For a full Check that is the original set; for a Session
// check it is the residual-plus-added set (the base's discharged
// constraints hold by construction under the bindings the model carries).
func finishResult(s *state, res Result, recheck []Constraint) Result {
	if res.Verdict != Unsat {
		res.forced = s.bindings
		res.NewlyForced = s.fresh
	}
	if res.Verdict == Sat {
		rv := resolver{m: res.model}
		for _, c := range recheck {
			ok, def := rv.holds(c)
			if !def || !ok {
				res.Verdict = Unknown
				res.Reason = fmt.Sprintf("model failed recheck on %s", c)
				res.model = nil
				break
			}
		}
	}
	return res
}

// clone forks the propagated state (bindings, intervals, definitions,
// residual pending constraints) so a child solve can extend it without
// touching the parent: the child shares the parent's base maps and copies
// only its own writes. Search bookkeeping starts fresh.
func (s *state) clone() *state {
	return &state{
		opt:       s.opt,
		pending:   append([]Constraint(nil), s.pending...),
		bindings:  s.bindings.clone(),
		defs:      s.defs.clone(),
		intervals: s.intervals.clone(),
	}
}

// Session is the incremental-solving entry point: it snapshots the
// propagated state (variable bindings, intervals, definitions, and the
// residual constraint set) reached over a base conjunction, so checking
// base ∧ added costs only the propagation of `added` plus whatever search
// the residue needs — not a re-propagation of the whole base. RES threads
// one session per search node: a child step adds the handful of
// constraints its block introduced instead of re-solving a depth-long
// history.
//
// A session remembers the outcome of the full check that built it, when
// that check was not interrupted and its propagation reached a fixpoint:
// a check that adds nothing under the same search options (MaxEnum,
// RandomTries, Seed) would search the same residue the same way, so it
// returns that outcome instead.
//
// Sessions are immutable after construction and safe for concurrent use:
// CheckWith and Extend fork the propagated state before mutating it,
// writing only the fork's own maps, so any number of goroutines may extend
// one parent session simultaneously.
//
// Verdict parity with Check: propagation is monotone and runs to fixpoint
// over the same constraints in the same order (base first, added after —
// exactly the order a full Check would see), so a Session reaches the
// same bindings, the same residue, and therefore the same verdicts and
// models as Check over the flattened set.
type Session struct {
	st     *state // propagated over the base set; read-only after construction
	reason string // why the base is contradictory, or the remembered reason
	unsat  bool   // the base itself is contradictory
	// known is set when the session remembers the search outcome of the
	// check that built it, under st.opt: its verdict (Sat or Unknown),
	// reason, Sat assignment and the number of models it tried.
	known   bool
	verdict Verdict
	tried   int
	search  symx.Model
}

// NewSession returns the empty session (no base constraints).
func NewSession() *Session {
	return &Session{st: &state{}}
}

// CheckWith decides base ∧ added under opt, reusing the session's
// propagated state. It is Check over the flattened conjunction, minus the
// re-propagation of the base. Zero option fields take package defaults.
func (s *Session) CheckWith(added []Constraint, opt Options) Result {
	res, _ := s.extend(added, opt, false, false)
	return res
}

// Extend decides base ∧ added and, when the verdict is not Unsat, returns
// a child session whose base is the propagated combined set — the state a
// feasible search node hands to its children.
func (s *Session) Extend(added []Constraint, opt Options) (Result, *Session) {
	return s.extend(added, opt, true, false)
}

// RefuteWith is CheckWith for a caller that reads only whether the
// verdict is Unsat: it propagates as CheckWith does, but searches only a
// residue whose every variable has a two-sided interval of at most two
// values, the only residue a search can refute. Any other residue is
// Unknown, "not searched", unless nothing is added to a session that
// remembers an outcome, which it returns as CheckWith does. Its Unsat
// verdicts and their reasons, Forced and NewlyForced are CheckWith's.
func (s *Session) RefuteWith(added []Constraint, opt Options) Result {
	res, _ := s.extend(added, opt, false, true)
	return res
}

// ExtendRefute is Extend for a caller that reads only whether the verdict
// is Unsat, searching as RefuteWith does. Its child session is Extend's,
// but it does not remember this check's outcome.
func (s *Session) ExtendRefute(added []Constraint, opt Options) (Result, *Session) {
	return s.extend(added, opt, true, true)
}

func (s *Session) extend(added []Constraint, opt Options, keep, refute bool) (Result, *Session) {
	if s.unsat {
		// The base was already contradictory; nothing added can fix it.
		return Result{Verdict: Unsat, Reason: s.reason}, s
	}
	var t0 time.Time
	if opt.Observe != nil {
		t0 = time.Now()
	}
	norm := opt.normalize()
	if len(added) == 0 && s.known && norm.MaxEnum == s.st.opt.MaxEnum &&
		norm.RandomTries == s.st.opt.RandomTries && norm.Seed == s.st.opt.Seed {
		res := s.remembered()
		if opt.Observe != nil {
			opt.Observe(time.Since(t0), res.Verdict)
		}
		return res, s
	}
	st := s.st.clone()
	st.opt = norm
	recheck := append(append([]Constraint(nil), st.pending...), added...)
	st.pending = append(st.pending, added...)
	out := st.solve(refute)
	res := finishResult(st, out, recheck)
	if opt.Observe != nil {
		opt.Observe(time.Since(t0), res.Verdict)
	}
	if !keep {
		return res, nil
	}
	child := &Session{st: st}
	if res.Verdict == Unsat {
		child.unsat, child.reason = true, res.Reason
	} else {
		if !refute && !st.interrupted && st.rounds <= maxRounds {
			// The search's outcome, before the recheck: a check that adds
			// nothing searches the same residue and rechecks only it, as
			// remembered does.
			child.known, child.verdict, child.reason, child.tried = true, out.Verdict, out.Reason, st.tried
			if out.model != nil {
				child.search = out.model.search
			}
		}
		// The search phases only touch bookkeeping, but clear it so the
		// retained state is a pure propagation snapshot. Folding builds new
		// maps: res and its model keep reading the ones they hold.
		st.tried, st.rounds, st.enumComplete, st.interrupted, st.fresh = 0, 0, false, false, nil
		st.bindings, st.defs, st.intervals = st.bindings.fold(), st.defs.fold(), st.intervals.fold()
	}
	return res, child
}

// remembered is the result a check that adds nothing would reach: one
// propagation round over the residue, which is at its fixpoint, binds
// nothing new, and the search repeats the remembered one.
func (s *Session) remembered() Result {
	res := Result{Verdict: s.verdict, Reason: s.reason, PropagationRounds: 1, ModelsTried: s.tried}
	if s.verdict == Sat {
		res.model = s.st.model(s.search)
	}
	return finishResult(s.st, res, s.st.pending)
}

type interval struct {
	lo, hi int64
	hasLo  bool
	hasHi  bool
}

func (iv interval) empty() bool { return iv.hasLo && iv.hasHi && iv.lo > iv.hi }

func (iv interval) singleton() (int64, bool) {
	if iv.hasLo && iv.hasHi && iv.lo == iv.hi {
		return iv.lo, true
	}
	return 0, false
}

// def is a variable definition x := e (e not ground yet). idx is its place
// in definition order, which model resolution reads.
type def struct {
	e   *symx.Expr
	idx int
}

// Fold thresholds: a kept session folds a map's own writes into a new
// base once they number more than foldMin and more than 1/foldShare of
// the base. Between folds a fork copies at most that share; each fold
// copies the whole map, once per that many writes.
const (
	foldMin   = 8
	foldShare = 8
)

// layered is a map in two levels: base, shared read-only with the states
// forked from the same session, and own, this state's writes since. n
// counts the distinct variables over both. A read probes own, then base.
type layered[V any] struct {
	base, own map[symx.Var]V
	n         int
}

func (l *layered[V]) get(v symx.Var) (V, bool) {
	if x, ok := l.own[v]; ok {
		return x, true
	}
	x, ok := l.base[v]
	return x, ok
}

// at is get without the flag: the zero value for an absent variable.
func (l *layered[V]) at(v symx.Var) V {
	x, _ := l.get(v)
	return x
}

func (l *layered[V]) set(v symx.Var, x V) {
	if _, ok := l.get(v); !ok {
		l.n++
	}
	if l.own == nil {
		l.own = make(map[symx.Var]V)
	}
	l.own[v] = x
}

// clone returns a fork of l: the same base and a copy of own.
func (l layered[V]) clone() layered[V] {
	l.own = maps.Clone(l.own)
	return l
}

// fold returns l with own merged into a new base once own has outgrown
// its share of the base, and l itself otherwise.
func (l layered[V]) fold() layered[V] {
	if len(l.own) <= foldMin || len(l.own)*foldShare <= len(l.base) {
		return l
	}
	base := make(map[symx.Var]V, l.n)
	maps.Copy(base, l.base)
	maps.Copy(base, l.own)
	return layered[V]{base: base, n: l.n}
}

// all visits every variable once, with its value.
func (l *layered[V]) all(f func(symx.Var, V)) {
	for v, x := range l.own {
		f(v, x)
	}
	for v, x := range l.base {
		if _, shadowed := l.own[v]; !shadowed {
			f(v, x)
		}
	}
}

type state struct {
	opt       Options
	pending   []Constraint
	bindings  layered[int64] // concrete assignments discovered
	defs      layered[def]   // at most one definition per variable
	intervals layered[interval]
	// fresh lists the variables this solve bound that the state it was
	// cloned from (if any) did not, in binding order.
	fresh  []symx.Var
	rounds int
	tried  int
	// enumComplete is set when enumeration walked the full candidate
	// lattice without finding a model.
	enumComplete bool
	// interrupted is latched when opt.Interrupt fires mid-search.
	interrupted bool
}

// interruptNow polls the interrupt hook (cheaply: every 256th call per
// phase iteration sites pass their loop counter).
func (s *state) interruptNow(i int) bool {
	if s.interrupted {
		return true
	}
	if s.opt.Interrupt != nil && i&0xff == 0 && s.opt.Interrupt() {
		s.interrupted = true
	}
	return s.interrupted
}

// solve propagates and searches the residue. With refute set its caller
// reads only whether the verdict is Unsat, and it searches only a residue
// the search could refute (finite); any other residue is Unknown, "not
// searched".
func (s *state) solve(refute bool) Result {
	if why, ok := s.propagate(); !ok {
		return Result{Verdict: Unsat, Reason: why, PropagationRounds: s.rounds}
	}
	// All constraints discharged by propagation?
	if len(s.pending) == 0 {
		return Result{Verdict: Sat, model: s.model(nil), PropagationRounds: s.rounds}
	}
	// Search phase over the residual constraints.
	vars := s.residualVars()
	if refute && !s.finite(vars) {
		return Result{Verdict: Unknown, Reason: "not searched", PropagationRounds: s.rounds}
	}
	k := compile(s.pending, vars)
	if s.enumerate(vars, k) || s.randomized(vars, k) {
		return Result{Verdict: Sat, model: s.model(k.model(vars)), PropagationRounds: s.rounds, ModelsTried: s.tried}
	}
	if s.interrupted {
		return Result{Verdict: Unknown, Reason: "interrupted", PropagationRounds: s.rounds, ModelsTried: s.tried}
	}
	// If every residual variable has a small finite interval and we
	// covered the full product space during enumeration, the residue is
	// exhaustively refuted.
	if s.exhausted(vars) {
		return Result{Verdict: Unsat, Reason: "finite domains exhausted", PropagationRounds: s.rounds, ModelsTried: s.tried}
	}
	return Result{Verdict: Unknown, Reason: "search budget exhausted", PropagationRounds: s.rounds, ModelsTried: s.tried}
}

// maxRounds bounds propagation; past it the residue goes to the search
// without reaching a fixpoint.
const maxRounds = 10000

// propagate runs simplification, inversion and interval narrowing to a
// fixpoint. Returns (reason, false) on a sound contradiction.
func (s *state) propagate() (string, bool) {
	for {
		s.rounds++
		if s.rounds > maxRounds {
			return "", true // give up on propagation, fall through to search
		}
		if s.interruptNow(s.rounds) {
			return "", true // abandoned: solve() reports the interrupt
		}
		changed := false
		next := make([]Constraint, 0, len(s.pending))
		for _, c := range s.pending {
			cl := s.substitute(c.L)
			cr := s.substitute(c.R)
			nc := Constraint{L: cl, R: cr, Rel: c.Rel}
			status, emit, why := s.step(nc)
			switch status {
			case stepUnsat:
				return why, false
			case stepDischarged:
				changed = true
			case stepRewritten:
				changed = true
				next = append(next, emit...)
			case stepKeep:
				if !cl.Equal(c.L) || !cr.Equal(c.R) {
					changed = true
				}
				next = append(next, nc)
			}
		}
		s.pending = next
		if !changed {
			return "", true
		}
	}
}

type stepStatus uint8

const (
	stepKeep stepStatus = iota
	stepDischarged
	stepRewritten
	stepUnsat
)

// step processes a single constraint: evaluates ground ones, binds
// variables, inverts arithmetic, decomposes comparisons, and narrows
// intervals.
func (s *state) step(c Constraint) (stepStatus, []Constraint, string) {
	lc, lok := c.L.IsConst()
	rc, rok := c.R.IsConst()
	if lok && rok {
		ok := false
		switch c.Rel {
		case RelEq:
			ok = lc == rc
		case RelNe:
			ok = lc != rc
		case RelLt:
			ok = lc < rc
		case RelLe:
			ok = lc <= rc
		}
		if ok {
			return stepDischarged, nil, ""
		}
		return stepUnsat, nil, fmt.Sprintf("ground contradiction: %d %s %d", lc, c.Rel, rc)
	}
	// Normalize: constant on the right.
	if lok {
		switch c.Rel {
		case RelEq, RelNe:
			c.L, c.R = c.R, c.L
			lok, rok = rok, lok
			lc, rc = rc, lc
		case RelLt: // c < e  ==  e > c  ==  ¬(e <= c)... keep as interval form below
			// rewrite to e >= c+1 i.e. Le(Const(c+1), e) stays const-left; handle in intervals.
		}
	}

	switch c.Rel {
	case RelEq:
		return s.stepEq(c.L, c.R)
	case RelNe:
		// x != c with x bound elsewhere handled by substitution; otherwise
		// keep for the search phase (and singleton-interval refutation).
		if v, ok := c.L.IsVar(); ok && rok {
			if single, isSingle := s.intervals.at(v).singleton(); isSingle && single == rc {
				return stepUnsat, nil, fmt.Sprintf("v%d pinned to %d but must differ", uint32(v), rc)
			}
		}
		return stepKeep, nil, ""
	case RelLt, RelLe:
		return s.stepOrder(c)
	}
	return stepKeep, nil, ""
}

// stepEq handles L == R with R canonical (constant on right if any).
func (s *state) stepEq(l, r *symx.Expr) (stepStatus, []Constraint, string) {
	// Bare variable on either side.
	if v, ok := l.IsVar(); ok {
		return s.bindOrDefine(v, r)
	}
	if v, ok := r.IsVar(); ok {
		return s.bindOrDefine(v, l)
	}
	rcVal, rok := r.IsConst()
	if !rok {
		// expr == expr: try l - r == 0 if that simplifies to something
		// invertible.
		diff := symx.Binary(symx.OpSub, l, r)
		if !diff.Equal(l) { // avoid no-progress loops
			if dc, ok := diff.IsConst(); ok {
				if dc == 0 {
					return stepDischarged, nil, ""
				}
				return stepUnsat, nil, "expressions differ by nonzero constant"
			}
		}
		return stepKeep, nil, ""
	}

	// Inversion on the left structure.
	switch l.Kind {
	case symx.KUnary:
		switch l.Op {
		case symx.OpNeg:
			return stepRewritten, []Constraint{Eq(l.L, symx.Const(-rcVal))}, ""
		case symx.OpNot:
			return stepRewritten, []Constraint{Eq(l.L, symx.Const(^rcVal))}, ""
		}
	case symx.KBinary:
		if c2, ok := l.R.IsConst(); ok {
			switch l.Op {
			case symx.OpAdd:
				return stepRewritten, []Constraint{Eq(l.L, symx.Const(rcVal-c2))}, ""
			case symx.OpSub:
				return stepRewritten, []Constraint{Eq(l.L, symx.Const(rcVal+c2))}, ""
			case symx.OpXor:
				return stepRewritten, []Constraint{Eq(l.L, symx.Const(rcVal^c2))}, ""
			case symx.OpMul:
				return s.invertMul(l.L, c2, rcVal)
			}
		}
		if c2, ok := l.L.IsConst(); ok && l.Op == symx.OpSub {
			// c2 - x == r  =>  x == c2 - r
			return stepRewritten, []Constraint{Eq(l.R, symx.Const(c2-rcVal))}, ""
		}
		// Comparison results are 0/1 only.
		if l.Op.IsCmp() {
			if rcVal != 0 && rcVal != 1 {
				return stepUnsat, nil, fmt.Sprintf("comparison result equated to %d", rcVal)
			}
			pos := rcVal == 1
			var out Constraint
			switch l.Op {
			case symx.OpEq:
				if pos {
					out = Eq(l.L, l.R)
				} else {
					out = Ne(l.L, l.R)
				}
			case symx.OpNe:
				if pos {
					out = Ne(l.L, l.R)
				} else {
					out = Eq(l.L, l.R)
				}
			case symx.OpLt:
				if pos {
					out = Lt(l.L, l.R)
				} else {
					out = Le(l.R, l.L)
				}
			case symx.OpLe:
				if pos {
					out = Le(l.L, l.R)
				} else {
					out = Lt(l.R, l.L)
				}
			}
			return stepRewritten, []Constraint{out}, ""
		}
	}
	return stepKeep, nil, ""
}

// invertMul solves x * c == r over 64-bit words: with g the largest power
// of two dividing c, solutions exist iff g divides r, and then
// x == (r/g) * inverse(c/g) mod 2^64 is one canonical solution; since the
// odd part is invertible the solution set is exactly that value plus
// multiples of 2^64/g in the high bits — we constrain only the canonical
// solution when g == 1 (fully invertible) and otherwise keep the
// constraint for the search phase to avoid losing solutions.
func (s *state) invertMul(x *symx.Expr, c, r int64) (stepStatus, []Constraint, string) {
	if c == 0 {
		if r == 0 {
			return stepDischarged, nil, ""
		}
		return stepUnsat, nil, "0*x equated to nonzero"
	}
	uc := uint64(c)
	g := uc & -uc // power-of-two part
	if uint64(r)%g != 0 {
		return stepUnsat, nil, fmt.Sprintf("%d*x == %d has no solution (parity)", c, r)
	}
	if g == 1 {
		inv := modInverse(uc)
		return stepRewritten, []Constraint{Eq(x, symx.Const(int64(uint64(r)*inv)))}, ""
	}
	return stepKeep, nil, ""
}

// modInverse computes the multiplicative inverse of odd a modulo 2^64 by
// Newton iteration.
func modInverse(a uint64) uint64 {
	x := a // 3 bits correct
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

// bindOrDefine records v == e: a concrete binding when e is ground, a
// definition otherwise (with an occurs check to reject v == f(v) unless it
// simplifies).
func (s *state) bindOrDefine(v symx.Var, e *symx.Expr) (stepStatus, []Constraint, string) {
	if c, ok := e.IsConst(); ok {
		if iv, okIV := s.intervals.get(v); okIV {
			if (iv.hasLo && c < iv.lo) || (iv.hasHi && c > iv.hi) {
				return stepUnsat, nil, fmt.Sprintf("binding v%d=%d violates interval", uint32(v), c)
			}
		}
		if old, bound := s.bindings.get(v); bound {
			if old != c {
				return stepUnsat, nil, fmt.Sprintf("v%d bound to both %d and %d", uint32(v), old, c)
			}
			return stepDischarged, nil, ""
		}
		s.bind(v, c)
		return stepDischarged, nil, ""
	}
	if s.occurs(v, e) {
		// v == f(v): keep for search; may still be satisfiable (v == v+0
		// already simplified away).
		return stepKeep, nil, ""
	}
	// Avoid duplicate definitions for the same variable: keep the first,
	// and turn the rest into equations between the definitions.
	if d, ok := s.defs.get(v); ok {
		return stepRewritten, []Constraint{Eq(d.e, e)}, ""
	}
	s.defs.set(v, def{e: e, idx: s.defs.n})
	// Transfer v's narrowed interval onto the definition: substitution
	// erases v from the system, so without this v ∈ [lo,hi] (knowledge
	// discharged from earlier order constraints) would be lost and a
	// model could assign e a value outside it.
	if iv, ok := s.intervals.get(v); ok {
		var out []Constraint
		if iv.hasLo {
			out = append(out, Le(symx.Const(iv.lo), e))
		}
		if iv.hasHi {
			out = append(out, Le(e, symx.Const(iv.hi)))
		}
		if len(out) > 0 {
			return stepRewritten, out, ""
		}
	}
	return stepDischarged, nil, ""
}

// occurs reports whether v occurs in e: written in it, or mentioned by a
// definition that e's variables reach. Defining v := e in either case
// would close a cycle of definitions, which substitution would unroll one
// level per propagation round without end.
func (s *state) occurs(v symx.Var, e *symx.Expr) bool {
	var seen map[symx.Var]bool
	return s.reaches(v, e, &seen)
}

// reaches is occurs over the definitions not yet in *seen.
func (s *state) reaches(v symx.Var, e *symx.Expr, seen *map[symx.Var]bool) bool {
	return e.AnyVar(func(u symx.Var) bool {
		if u == v {
			return true
		}
		d, ok := s.defs.get(u)
		if !ok || (*seen)[u] {
			return false
		}
		if *seen == nil {
			*seen = make(map[symx.Var]bool)
		}
		(*seen)[u] = true
		return s.reaches(v, d.e, seen)
	})
}

// bind records the binding v = c. Its callers have checked that v is
// unbound or already bound to c.
func (s *state) bind(v symx.Var, c int64) {
	if _, ok := s.bindings.get(v); !ok {
		s.fresh = append(s.fresh, v)
		s.bindings.set(v, c)
	}
}

// stepOrder narrows intervals from order constraints with one variable
// side and one constant side.
func (s *state) stepOrder(c Constraint) (stepStatus, []Constraint, string) {
	lc, lok := c.L.IsConst()
	rc, rok := c.R.IsConst()
	if v, ok := c.L.IsVar(); ok && rok {
		// v < rc / v <= rc
		hi := rc
		if c.Rel == RelLt {
			if rc == minInt64 {
				return stepUnsat, nil, "v < MinInt64"
			}
			hi = rc - 1
		}
		return s.narrow(v, interval{hi: hi, hasHi: true})
	}
	if v, ok := c.R.IsVar(); ok && lok {
		// lc < v / lc <= v
		lo := lc
		if c.Rel == RelLt {
			if lc == maxInt64 {
				return stepUnsat, nil, "MaxInt64 < v"
			}
			lo = lc + 1
		}
		return s.narrow(v, interval{lo: lo, hasLo: true})
	}
	// (x + c) <= rc  =>  x <= rc - c, when no overflow ambiguity: we only
	// rewrite when the addition provably cannot wrap for any x in the
	// current interval — conservatively, only when c == 0 (already
	// simplified). Keep otherwise.
	return stepKeep, nil, ""
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

func (s *state) narrow(v symx.Var, nv interval) (stepStatus, []Constraint, string) {
	iv := s.intervals.at(v)
	if nv.hasLo && (!iv.hasLo || nv.lo > iv.lo) {
		iv.lo, iv.hasLo = nv.lo, true
	}
	if nv.hasHi && (!iv.hasHi || nv.hi < iv.hi) {
		iv.hi, iv.hasHi = nv.hi, true
	}
	if iv.empty() {
		return stepUnsat, nil, fmt.Sprintf("empty interval for v%d", uint32(v))
	}
	s.intervals.set(v, iv)
	if c, ok := iv.singleton(); ok {
		if old, bound := s.bindings.get(v); bound && old != c {
			return stepUnsat, nil, fmt.Sprintf("interval pins v%d to %d but it is bound to %d", uint32(v), c, old)
		}
		s.bind(v, c)
	}
	// Check against existing binding.
	if c, bound := s.bindings.get(v); bound {
		if (iv.hasLo && c < iv.lo) || (iv.hasHi && c > iv.hi) {
			return stepUnsat, nil, fmt.Sprintf("binding v%d=%d outside interval", uint32(v), c)
		}
	}
	return stepDischarged, nil, ""
}

// substitute applies concrete bindings and definitions to an expression.
func (s *state) substitute(e *symx.Expr) *symx.Expr {
	return e.SubstFunc(func(v symx.Var) (*symx.Expr, bool) {
		if c, ok := s.bindings.get(v); ok {
			return symx.Const(c), true
		}
		if d, ok := s.defs.get(v); ok {
			return d.e, true
		}
		return nil, false
	})
}

func (s *state) residualVars() []symx.Var {
	set := make(map[symx.Var]bool)
	for _, c := range s.pending {
		c.L.Vars(set)
		c.R.Vars(set)
	}
	out := make([]symx.Var, 0, len(set))
	for v := range set {
		if _, bound := s.bindings.get(v); !bound {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// candidates returns the candidate values tried for a variable during
// enumeration: interval endpoints, small integers, and the constants that
// appear in the residual constraints with ±1 neighbours.
func (s *state) candidates(v symx.Var) []int64 {
	seen := make(map[int64]bool)
	var out []int64
	iv := s.intervals.at(v)
	add := func(x int64) {
		if iv.hasLo && x < iv.lo {
			return
		}
		if iv.hasHi && x > iv.hi {
			return
		}
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	if iv.hasLo {
		add(iv.lo)
	}
	if iv.hasHi {
		add(iv.hi)
	}
	for _, x := range []int64{0, 1, -1, 2} {
		add(x)
	}
	var walk func(e *symx.Expr)
	walk = func(e *symx.Expr) {
		switch e.Kind {
		case symx.KConst:
			add(e.Val)
			if e.Val != maxInt64 {
				add(e.Val + 1)
			}
			if e.Val != minInt64 {
				add(e.Val - 1)
			}
		case symx.KUnary:
			walk(e.L)
		case symx.KBinary:
			walk(e.L)
			walk(e.R)
		}
	}
	for _, c := range s.pending {
		walk(c.L)
		walk(c.R)
	}
	// Canonical solutions of residual even multiplications c*v == r: the
	// propagation phase keeps these (the solution set has 2^k elements),
	// but the small canonical representative is almost always the one
	// real programs mean, so offer it to the enumerator.
	for _, c := range s.pending {
		if c.Rel != RelEq {
			continue
		}
		l, r := c.L, c.R
		rcv, rok := r.IsConst()
		if !rok {
			continue
		}
		if l.Kind != symx.KBinary || l.Op != symx.OpMul {
			continue
		}
		mv, vok := l.L.IsVar()
		mc, cok := l.R.IsConst()
		if !vok || !cok || mv != v || mc == 0 {
			continue
		}
		uc := uint64(mc)
		g := uc & -uc
		if uint64(rcv)%g != 0 {
			continue
		}
		base := int64((uint64(rcv) / g) * modInverse(uc/g))
		add(base)
	}
	return out
}

// enumerate tries the cross product of per-variable candidates, leaving
// the model it finds in k's try.
func (s *state) enumerate(vars []symx.Var, k *kernel) bool {
	if len(vars) == 0 {
		return k.holds()
	}
	cands := make([][]int64, len(vars))
	total := 1
	for i, v := range vars {
		cands[i] = s.candidates(v)
		total *= len(cands[i])
		if total > s.opt.MaxEnum || total < 0 {
			total = s.opt.MaxEnum + 1
			break
		}
	}
	if total > s.opt.MaxEnum {
		// Too many combinations: sample the lattice diagonally instead of
		// enumerating; the randomized phase still follows.
		return false
	}
	idx := make([]int, len(vars))
	try := k.slots[:len(vars)]
	for {
		if s.interruptNow(s.tried) {
			return false
		}
		s.tried++
		for i := range try {
			try[i] = cands[i][idx[i]]
		}
		if k.holds() {
			return true
		}
		// Odometer increment.
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(cands[i]) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			s.enumComplete = true
			return false
		}
	}
}

// randomized samples models at random within intervals, leaving the
// model it finds in k's try.
func (s *state) randomized(vars []symx.Var, k *kernel) bool {
	if len(vars) == 0 {
		return false
	}
	rng := rand.New(rand.NewSource(s.opt.Seed))
	ivs := make([]interval, len(vars))
	for i, v := range vars {
		ivs[i] = s.intervals.at(v)
	}
	try := k.slots[:len(vars)]
	for t := 0; t < s.opt.RandomTries; t++ {
		if s.interruptNow(t) {
			return false
		}
		s.tried++
		for i, iv := range ivs {
			var x int64
			switch {
			case iv.hasLo && iv.hasHi:
				span := uint64(iv.hi - iv.lo)
				if span == 0 {
					x = iv.lo
				} else if span < 1<<62 {
					x = iv.lo + int64(rng.Uint64()%(span+1))
				} else {
					x = int64(rng.Uint64())
				}
			case t%2 == 0:
				// Small values dominate real workloads.
				x = rng.Int63n(1<<16) - 1<<15
			default:
				x = int64(rng.Uint64())
			}
			try[i] = x
		}
		if k.holds() {
			return true
		}
	}
	return false
}

// finite reports whether every variable has a two-sided interval of at
// most two values, which its candidates cover: the only residue a
// complete enumeration refutes.
func (s *state) finite(vars []symx.Var) bool {
	for _, v := range vars {
		iv := s.intervals.at(v)
		if !iv.hasLo || !iv.hasHi {
			return false
		}
		if iv.hi-iv.lo > 1 {
			return false
		}
	}
	return true
}

// exhausted reports whether the enumeration covered the entire (finite)
// solution space, making a negative result a sound Unsat.
func (s *state) exhausted(vars []symx.Var) bool {
	return s.enumComplete && s.finite(vars)
}

// model is a Sat verdict's assignment, resolved where it is read. It
// shares the solved state's bindings and definitions, which nothing
// writes once the solve has returned.
//
// A variable's value is its search value or its propagated binding. A
// defined variable whose definition's variables all have values this way,
// directly or through such definitions, is grounded and takes the
// definition's value. The other definitions are evaluated in definition
// order, each over the grounded values and the definitions before it, a
// variable with no value reading 0. A definition that divides by zero
// leaves its variable without a value. Definitions are acyclic (occurs),
// so this is well defined.
type model struct {
	bindings layered[int64]
	search   symx.Model
	defs     layered[def]
}

func (s *state) model(search symx.Model) *model {
	return &model{bindings: s.bindings, search: search, defs: s.defs}
}

// full builds the whole assignment.
func (m *model) full() symx.Model {
	out := make(symx.Model, m.bindings.n+len(m.search)+m.defs.n)
	m.bindings.all(func(v symx.Var, c int64) { out[v] = c })
	for v, c := range m.search {
		out[v] = c
	}
	rv := resolver{m: m, memo: make(map[symx.Var]resolved, m.defs.n)}
	m.defs.all(func(v symx.Var, _ def) {
		if r := rv.value(v); r.set {
			out[v] = r.val
		}
	})
	return out
}

// resolver reads values from a model, remembering the defined variables
// it has resolved. It is not safe for concurrent use; Result makes one per
// read, or one per Evaluator.
type resolver struct {
	m    *model
	memo map[symx.Var]resolved
}

type resolved struct {
	val      int64
	set      bool // the variable has a value (one without reads 0)
	grounded bool
}

// value resolves one variable.
func (r *resolver) value(v symx.Var) resolved {
	if c, ok := r.m.search[v]; ok {
		return resolved{val: c, set: true, grounded: true}
	}
	if c, ok := r.m.bindings.get(v); ok {
		return resolved{val: c, set: true, grounded: true}
	}
	d, ok := r.m.defs.get(v)
	if !ok {
		return resolved{}
	}
	if got, ok := r.memo[v]; ok {
		return got
	}
	if r.memo == nil {
		r.memo = make(map[symx.Var]resolved)
	}
	r.memo[v] = resolved{} // what a cycle would read, were there one
	var out resolved
	if !d.e.AnyVar(func(u symx.Var) bool { return !r.value(u).grounded }) {
		if c, ok := r.eval(d.e, -1); ok {
			out = resolved{val: c, set: true, grounded: true}
		}
	} else if c, ok := r.eval(d.e, d.idx); ok {
		out = resolved{val: c, set: true}
	}
	r.memo[v] = out
	return out
}

// eval evaluates e. With before >= 0 it evaluates the definition at that
// place in definition order, reading only the grounded values and the
// values of the definitions before it.
func (r *resolver) eval(e *symx.Expr, before int) (int64, bool) {
	return e.EvalFunc(func(u symx.Var) int64 {
		got := r.value(u)
		if !got.grounded && before >= 0 {
			if d, ok := r.m.defs.get(u); !ok || d.idx >= before {
				return 0
			}
		}
		return got.val
	})
}

// holds is Constraint.Holds under the model.
func (r *resolver) holds(c Constraint) (bool, bool) {
	a, ok := r.eval(c.L, -1)
	if !ok {
		return false, false
	}
	b, ok := r.eval(c.R, -1)
	if !ok {
		return false, false
	}
	return relHolds(c.Rel, a, b)
}

// String renders a constraint set for diagnostics.
func String(cs []Constraint) string {
	var b strings.Builder
	for i, c := range cs {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(c.String())
	}
	return b.String()
}
