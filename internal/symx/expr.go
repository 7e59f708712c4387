// Package symx provides the symbolic expression language used by RES's
// symbolic snapshots: 64-bit integer expressions over symbolic variables,
// with aggressive construction-time simplification, evaluation under a
// model, substitution, and structural equality.
//
// It plays the role KLEE's expression library played for the paper's
// prototype, specialized to the RES VM's word-sized semantics.
package symx

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Var identifies a symbolic variable. Fresh variables come from a Pool so
// their provenance ("pre-value of mem[1043] at search depth 3") is
// recorded for diagnostics.
type Var uint32

// Op enumerates expression operators. Comparison operators yield 0 or 1,
// matching the VM's ALU.
type Op uint8

const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv // faulting semantics handled by side constraints, not here
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl // shift count masked to 6 bits, as in the VM
	OpShr // arithmetic
	OpNot
	OpNeg
	OpEq
	OpNe
	OpLt // signed
	OpLe // signed
)

var opSyms = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpShl: "<<", OpShr: ">>",
	OpNot: "~", OpNeg: "-", OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=",
}

func (o Op) String() string {
	if int(o) < len(opSyms) {
		return opSyms[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsCmp reports whether the operator is a comparison (result 0/1).
func (o Op) IsCmp() bool { return o == OpEq || o == OpNe || o == OpLt || o == OpLe }

// Kind discriminates expression nodes.
type Kind uint8

const (
	KConst Kind = iota
	KVar
	KUnary
	KBinary
)

// Expr is an immutable expression tree node. Construct with Const, VarExpr,
// Unary and Binary — direct literals bypass simplification and canonical
// invariants.
type Expr struct {
	Kind Kind
	Val  int64 // KConst
	V    Var   // KVar
	Op   Op    // KUnary, KBinary
	L, R *Expr // operands (L only for KUnary)
	// hash is the structural hash, computed once at construction. It is
	// never zero for constructor-built expressions, so Equal can use an
	// O(1) inequality fast path while staying correct for (discouraged)
	// hand-built literals whose hash is zero.
	hash uint64
}

// MixHash folds v into h (multiply-xorshift, splitmix64-style): the
// mixer behind expression hashes, shared with snapshot fingerprinting so
// every structural hash in the system composes from one primitive.
func MixHash(h, v uint64) uint64 {
	h ^= v
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// exprHash combines a node's kind, payload and child hashes.
func exprHash(kind Kind, tag, l, r uint64) uint64 {
	h := MixHash(0x9e3779b97f4a7c15^uint64(kind), tag)
	h = MixHash(h, l)
	h = MixHash(h, r)
	if h == 0 {
		h = 1
	}
	return h
}

// Hash returns the cached structural hash: Equal expressions always share
// it, and unequal expressions collide with probability ~2^-64. Snapshot
// fingerprinting builds on this.
func (e *Expr) Hash() uint64 { return e.hash }

// Const returns a constant expression.
func Const(v int64) *Expr {
	return &Expr{Kind: KConst, Val: v, hash: exprHash(KConst, uint64(v), 0, 0)}
}

// VarExpr returns a variable reference.
func VarExpr(v Var) *Expr {
	return &Expr{Kind: KVar, V: v, hash: exprHash(KVar, uint64(v), 0, 0)}
}

// Bool converts a Go bool to the VM's 0/1 representation.
func Bool(b bool) *Expr {
	if b {
		return Const(1)
	}
	return Const(0)
}

// IsConst reports whether e is a constant, returning its value.
func (e *Expr) IsConst() (int64, bool) {
	if e.Kind == KConst {
		return e.Val, true
	}
	return 0, false
}

// IsVar reports whether e is a bare variable.
func (e *Expr) IsVar() (Var, bool) {
	if e.Kind == KVar {
		return e.V, true
	}
	return 0, false
}

func evalBin(op Op, a, b int64) (int64, bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case OpMod:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		return a << (uint64(b) & 63), true
	case OpShr:
		return a >> (uint64(b) & 63), true
	case OpEq:
		return b2i(a == b), true
	case OpNe:
		return b2i(a != b), true
	case OpLt:
		return b2i(a < b), true
	case OpLe:
		return b2i(a <= b), true
	}
	return 0, false
}

func evalUn(op Op, a int64) (int64, bool) {
	switch op {
	case OpNot:
		return ^a, true
	case OpNeg:
		return -a, true
	}
	return 0, false
}

// Unary builds a simplified unary expression.
func Unary(op Op, l *Expr) *Expr {
	if c, ok := l.IsConst(); ok {
		if v, ok := evalUn(op, c); ok {
			return Const(v)
		}
	}
	// Double negation / complement cancel.
	if l.Kind == KUnary && l.Op == op && (op == OpNot || op == OpNeg) {
		return l.L
	}
	return &Expr{Kind: KUnary, Op: op, L: l, hash: exprHash(KUnary, uint64(op), l.hash, 0)}
}

// Binary builds a simplified binary expression: constants fold, algebraic
// identities reduce, and commutative operators put constants on the right
// so downstream pattern matching sees a canonical form.
func Binary(op Op, l, r *Expr) *Expr {
	lc, lok := l.IsConst()
	rc, rok := r.IsConst()
	if lok && rok {
		if v, ok := evalBin(op, lc, rc); ok {
			return Const(v)
		}
	}
	// Canonicalize commutative ops: constant to the right.
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe:
		if lok && !rok {
			l, r = r, l
			lc, lok, rc, rok = rc, rok, lc, lok
		}
	}
	switch op {
	case OpAdd:
		if rok && rc == 0 {
			return l
		}
		// x + x => 2*x, which the solver can invert exactly.
		if l.Equal(r) {
			return Binary(OpMul, l, Const(2))
		}
		// (x + c1) + c2 => x + (c1+c2)
		if rok && l.Kind == KBinary && l.Op == OpAdd {
			if c1, ok := l.R.IsConst(); ok {
				return Binary(OpAdd, l.L, Const(c1+rc))
			}
		}
		// (x - c1) + c2 => x + (c2-c1)
		if rok && l.Kind == KBinary && l.Op == OpSub {
			if c1, ok := l.R.IsConst(); ok {
				return Binary(OpAdd, l.L, Const(rc-c1))
			}
		}
	case OpSub:
		if rok && rc == 0 {
			return l
		}
		if l.Equal(r) {
			return Const(0)
		}
		if rok {
			// x - c => x + (-c), canonical for the adder patterns above.
			return Binary(OpAdd, l, Const(-rc))
		}
	case OpMul:
		if rok {
			switch rc {
			case 0:
				return Const(0)
			case 1:
				return l
			}
		}
	case OpDiv:
		if rok && rc == 1 {
			return l
		}
	case OpAnd:
		if rok && rc == 0 {
			return Const(0)
		}
		if rok && rc == -1 {
			return l
		}
		if l.Equal(r) {
			return l
		}
	case OpOr:
		if rok && rc == 0 {
			return l
		}
		if rok && rc == -1 {
			return Const(-1)
		}
		if l.Equal(r) {
			return l
		}
	case OpXor:
		if rok && rc == 0 {
			return l
		}
		if l.Equal(r) {
			return Const(0)
		}
	case OpShl, OpShr:
		if rok && rc&63 == 0 {
			return l
		}
	case OpEq:
		if l.Equal(r) {
			return Const(1)
		}
	case OpNe:
		if l.Equal(r) {
			return Const(0)
		}
	case OpLt:
		if l.Equal(r) {
			return Const(0)
		}
	case OpLe:
		if l.Equal(r) {
			return Const(1)
		}
	}
	return &Expr{Kind: KBinary, Op: op, L: l, R: r, hash: exprHash(KBinary, uint64(op), l.hash, r.hash)}
}

// Equal reports structural equality. Cached hashes make the common
// unequal case O(1); equal-hash trees still compare structurally.
func (e *Expr) Equal(o *Expr) bool {
	if e == o {
		return true
	}
	if e == nil || o == nil || e.Kind != o.Kind {
		return false
	}
	if e.hash != 0 && o.hash != 0 && e.hash != o.hash {
		return false
	}
	switch e.Kind {
	case KConst:
		return e.Val == o.Val
	case KVar:
		return e.V == o.V
	case KUnary:
		return e.Op == o.Op && e.L.Equal(o.L)
	case KBinary:
		return e.Op == o.Op && e.L.Equal(o.L) && e.R.Equal(o.R)
	}
	return false
}

// Model assigns concrete values to variables; absent variables default to 0
// (the "unconstrained" choice).
type Model map[Var]int64

// Eval evaluates the expression under the model. The bool result is false
// only when a division/modulo by zero occurs.
func (e *Expr) Eval(m Model) (int64, bool) {
	switch e.Kind {
	case KConst:
		return e.Val, true
	case KVar:
		return m[e.V], true
	case KUnary:
		a, ok := e.L.Eval(m)
		if !ok {
			return 0, false
		}
		return evalUn(e.Op, a)
	case KBinary:
		a, ok := e.L.Eval(m)
		if !ok {
			return 0, false
		}
		b, ok := e.R.Eval(m)
		if !ok {
			return 0, false
		}
		return evalBin(e.Op, a, b)
	}
	return 0, false
}

// Subst replaces variables with the given expressions, rebuilding (and so
// re-simplifying) the tree. Variables absent from s are kept.
func (e *Expr) Subst(s map[Var]*Expr) *Expr {
	switch e.Kind {
	case KConst:
		return e
	case KVar:
		if r, ok := s[e.V]; ok {
			return r
		}
		return e
	case KUnary:
		l := e.L.Subst(s)
		if l == e.L {
			return e
		}
		return Unary(e.Op, l)
	case KBinary:
		l := e.L.Subst(s)
		r := e.R.Subst(s)
		if l == e.L && r == e.R {
			return e
		}
		return Binary(e.Op, l, r)
	}
	return e
}

// Vars adds every variable occurring in e to set.
func (e *Expr) Vars(set map[Var]bool) {
	switch e.Kind {
	case KVar:
		set[e.V] = true
	case KUnary:
		e.L.Vars(set)
	case KBinary:
		e.L.Vars(set)
		e.R.Vars(set)
	}
}

// HasVars reports whether e mentions any variable.
func (e *Expr) HasVars() bool {
	switch e.Kind {
	case KConst:
		return false
	case KVar:
		return true
	case KUnary:
		return e.L.HasVars()
	case KBinary:
		return e.L.HasVars() || e.R.HasVars()
	}
	return false
}

// Size returns the node count, used to bound solver work.
func (e *Expr) Size() int {
	switch e.Kind {
	case KConst, KVar:
		return 1
	case KUnary:
		return 1 + e.L.Size()
	case KBinary:
		return 1 + e.L.Size() + e.R.Size()
	}
	return 1
}

// String renders the expression; variables print as vN (use Pool.Render
// for provenance-aware rendering).
func (e *Expr) String() string {
	var b strings.Builder
	e.render(&b, nil)
	return b.String()
}

func (e *Expr) render(b *strings.Builder, pool *Pool) {
	switch e.Kind {
	case KConst:
		fmt.Fprintf(b, "%d", e.Val)
	case KVar:
		if pool != nil {
			b.WriteString(pool.Name(e.V))
		} else {
			fmt.Fprintf(b, "v%d", uint32(e.V))
		}
	case KUnary:
		b.WriteString(e.Op.String())
		b.WriteByte('(')
		e.L.render(b, pool)
		b.WriteByte(')')
	case KBinary:
		b.WriteByte('(')
		e.L.render(b, pool)
		b.WriteByte(' ')
		b.WriteString(e.Op.String())
		b.WriteByte(' ')
		e.R.render(b, pool)
		b.WriteByte(')')
	}
}

// Pool allocates fresh symbolic variables and remembers their provenance.
// It is safe for concurrent use: the search expands frontier candidates in
// parallel, all drawing fresh variables from one engine-wide pool.
type Pool struct {
	mu    sync.Mutex
	names []string
}

// NewPool returns an empty variable pool.
func NewPool() *Pool { return &Pool{} }

// Fresh allocates a new variable annotated with a provenance name.
func (p *Pool) Fresh(name string) Var {
	p.mu.Lock()
	p.names = append(p.names, name)
	v := Var(len(p.names) - 1)
	p.mu.Unlock()
	return v
}

// FreshExpr is Fresh wrapped in a variable expression.
func (p *Pool) FreshExpr(name string) *Expr { return VarExpr(p.Fresh(name)) }

// Name returns the provenance name of v.
func (p *Pool) Name(v Var) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(v) < len(p.names) {
		return fmt.Sprintf("%s#%d", p.names[v], uint32(v))
	}
	return fmt.Sprintf("v%d", uint32(v))
}

// Count returns the number of variables allocated so far.
func (p *Pool) Count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.names)
}

// Render renders e with provenance names.
func (p *Pool) Render(e *Expr) string {
	var b strings.Builder
	e.render(&b, p)
	return b.String()
}

// SortedVars returns the variables of e in ascending order; helper for
// deterministic iteration in the solver and tests.
func SortedVars(es ...*Expr) []Var {
	set := make(map[Var]bool)
	for _, e := range es {
		e.Vars(set)
	}
	out := make([]Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
