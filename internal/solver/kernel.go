package solver

import (
	"slices"

	"res/internal/symx"
)

// kernel is a residue compiled for the search. Its slots hold the try,
// indexed by position in the searched variables, then the constants the
// residue mentions, then one result per operator node. Its code computes
// the results in postorder and tests each constraint once its operands
// are computed, so a try stops at the first constraint that fails. A
// variable the search does not assign reads a zero constant, as it does
// in a symx.Model that has no value for it.
type kernel struct {
	slots []int64
	code  []instr
}

// instr computes slots[d] = op(slots[a], slots[b]) for a symx operator
// (a unary one reads slots[a] only), or, for op >= opTest, tests
// Rel(op-opTest) between slots[a] and slots[b].
type instr struct {
	op      uint8
	a, b, d int32
}

// opTest is the first test opcode, past every symx operator.
const opTest = 1 + uint8(symx.OpLe)

// compile flattens cs over vars, which are in ascending order. Of the n
// nodes of cs, each takes at most one slot, and each operator and each
// constraint one instruction: at most n-len(cs), since a constraint has
// two leaves at least.
func compile(cs []Constraint, vars []symx.Var) *kernel {
	n := 0
	for _, c := range cs {
		n += c.L.Size() + c.R.Size()
	}
	k := &kernel{slots: make([]int64, len(vars), len(vars)+n), code: make([]instr, 0, n-len(cs))}
	zero := int32(-1)
	slot := func(x int64) int32 {
		k.slots = append(k.slots, x)
		return int32(len(k.slots) - 1)
	}
	var emit func(e *symx.Expr) int32
	emit = func(e *symx.Expr) int32 {
		switch e.Kind {
		case symx.KVar:
			if i, ok := slices.BinarySearch(vars, e.V); ok {
				return int32(i)
			}
			if zero < 0 {
				zero = slot(0)
			}
			return zero
		case symx.KUnary:
			a := emit(e.L)
			d := slot(0)
			k.code = append(k.code, instr{op: uint8(e.Op), a: a, b: a, d: d})
			return d
		case symx.KBinary:
			a, b := emit(e.L), emit(e.R)
			d := slot(0)
			k.code = append(k.code, instr{op: uint8(e.Op), a: a, b: b, d: d})
			return d
		}
		return slot(e.Val)
	}
	for _, c := range cs {
		a, b := emit(c.L), emit(c.R)
		k.code = append(k.code, instr{op: opTest + uint8(c.Rel), a: a, b: b})
	}
	return k
}

// holds reports whether every constraint holds under the try: it is
// Constraint.Holds of each, a division or modulo by zero failing. It
// repeats symx's operator semantics inline because it is the search's
// innermost loop. A version that called symx's evaluators and relHolds
// (the binary evaluator is too large to inline) was slower in ten
// alternating rounds on a 2-vCPU Xeon: BenchmarkResidualSearch/unknown
// read a median 112 µs against 103 µs, slower in 9 rounds, and enum-8
// 515 µs against 423 µs, slower in all 10. TestKernelMatchesHolds holds
// the two together.
func (k *kernel) holds() bool {
	s := k.slots
	for _, in := range k.code {
		x, y := s[in.a], s[in.b]
		var r int64
		switch in.op {
		case uint8(symx.OpAdd):
			r = x + y
		case uint8(symx.OpSub):
			r = x - y
		case uint8(symx.OpMul):
			r = x * y
		case uint8(symx.OpDiv):
			if y == 0 {
				return false
			}
			r = x / y
		case uint8(symx.OpMod):
			if y == 0 {
				return false
			}
			r = x % y
		case uint8(symx.OpAnd):
			r = x & y
		case uint8(symx.OpOr):
			r = x | y
		case uint8(symx.OpXor):
			r = x ^ y
		case uint8(symx.OpShl):
			r = x << (uint64(y) & 63)
		case uint8(symx.OpShr):
			r = x >> (uint64(y) & 63)
		case uint8(symx.OpNot):
			r = ^x
		case uint8(symx.OpNeg):
			r = -x
		case uint8(symx.OpEq):
			r = b2i(x == y)
		case uint8(symx.OpNe):
			r = b2i(x != y)
		case uint8(symx.OpLt):
			r = b2i(x < y)
		case uint8(symx.OpLe):
			r = b2i(x <= y)
		case opTest + uint8(RelEq):
			if x != y {
				return false
			}
			continue
		case opTest + uint8(RelNe):
			if x == y {
				return false
			}
			continue
		case opTest + uint8(RelLt):
			if x >= y {
				return false
			}
			continue
		case opTest + uint8(RelLe):
			if x > y {
				return false
			}
			continue
		default:
			return false
		}
		s[in.d] = r
	}
	return true
}

// model builds the symx.Model of the try over vars.
func (k *kernel) model(vars []symx.Var) symx.Model {
	m := make(symx.Model, len(vars))
	for i, v := range vars {
		m[v] = k.slots[i]
	}
	return m
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
