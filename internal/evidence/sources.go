package evidence

import (
	"fmt"

	"res/internal/breadcrumb"
	"res/internal/core"
	"res/internal/coredump"
	"res/internal/isa"
	"res/internal/prog"
	"res/internal/solver"
	"res/internal/symx"
	"res/internal/wire"
)

// Wire tags. Stable: they are part of the evidence fingerprint.
const (
	kindLBR         = "lbr"
	kindOutputLog   = "output-log"
	kindEventLog    = "event-log"
	kindBranchTrace = "branch-trace"
	kindMemProbe    = "mem-probe"
)

// noConstrain is embedded by filter-only pruners.
type noConstrain struct{}

func (noConstrain) Constrain(int, core.StepInfo, *core.Child) (int, bool, bool) {
	return 0, false, true
}

// allowAll is embedded by constrain-only pruners.
type allowAll struct{}

func (allowAll) Filter(int, core.StepInfo) (bool, bool) { return true, false }

// --- LBR -------------------------------------------------------------------

// LBR prunes with the dump's own hardware branch ring, interpreted under
// the given recording mode. The ring itself travels inside the coredump
// (hardware collects it for free); the evidence record carries only the
// interpretation mode, so this source is the Source-interface form of
// the classic WithLBR hint.
type LBR struct {
	Mode breadcrumb.Mode
}

func (LBR) Kind() string { return kindLBR }

// Compile wraps the breadcrumb package's ring filter.
func (l LBR) Compile(p *prog.Program, d *coredump.Dump) (core.Pruner, error) {
	if l.Mode != breadcrumb.RecordAll && l.Mode != breadcrumb.SkipConditional {
		return nil, fmt.Errorf("bad LBR mode %d", l.Mode)
	}
	return lbrPruner{f: breadcrumb.LBRFilter(p, d.LBR, l.Mode)}, nil
}

func (l LBR) encodePayload() []byte {
	var e wire.Encoder
	e.Uvarint(uint64(l.Mode))
	return e.Bytes()
}

func decodeLBR(d *wire.Decoder) Source {
	mode := breadcrumb.Mode(d.Uvarint())
	if mode != breadcrumb.RecordAll && mode != breadcrumb.SkipConditional {
		d.Fail("bad LBR mode %d", mode)
	}
	return LBR{Mode: mode}
}

type lbrPruner struct {
	noConstrain
	f core.Filter
}

func (l lbrPruner) Filter(used int, s core.StepInfo) (bool, bool) {
	return l.f(used, s.HasTransfer, s.From, s.To)
}

// --- Output log ------------------------------------------------------------

// OutputLog prunes with error-log breadcrumbs: a candidate suffix's
// OUTPUT records must match the tail of the dump's output log, newest
// first, and the matched values are discharged through the solver. This
// is the Source-interface form of the classic WithMatchOutputs hint; the
// log itself travels inside the coredump.
type OutputLog struct{}

func (OutputLog) Kind() string { return kindOutputLog }

func (OutputLog) Compile(p *prog.Program, d *coredump.Dump) (core.Pruner, error) {
	return outputPruner{log: d.Outputs}, nil
}

func (OutputLog) encodePayload() []byte { return nil }

type outputPruner struct {
	allowAll
	log []coredump.OutputRec
}

// Constrain matches the step's OUTPUT records against the log tail,
// newest first (§2.4: "existing error logs can provide RES with useful,
// coarse-grained breadcrumbs"). A pc/tag mismatch rejects the child with
// no solver call; matched records equate the symbolic output value with
// the logged one and request one incremental check.
func (o outputPruner) Constrain(used int, _ core.StepInfo, c *core.Child) (int, bool, bool) {
	if len(c.Outputs) == 0 {
		return 0, false, true
	}
	consumed := 0
	for i := len(c.Outputs) - 1; i >= 0; i-- {
		ou := c.Outputs[i]
		idx := len(o.log) - 1 - (used + consumed)
		if idx < 0 {
			break // beyond the recorded log horizon
		}
		want := o.log[idx]
		if want.PC != ou.PC || want.Tag != ou.Tag {
			return consumed, false, false
		}
		c.Snap.AddCons(solver.Eq(ou.Value, symx.Const(want.Value)))
		consumed++
	}
	return consumed, true, true
}

// --- Event log -------------------------------------------------------------

// EventRec is one sampled scheduling breadcrumb: at global block index
// Index (the VM's step counter, 0-based), thread Tid began executing
// block Block.
type EventRec struct {
	Index      uint64
	Tid, Block int
}

// EventLog is a sparse, timestamped sample of the execution's schedule:
// production recorded every Nth block start (with arbitrary gaps) into a
// bounded ring. Because each record is stamped with the block-step index
// and the dump knows the total step count, every record inside the
// search horizon pins one suffix depth exactly: the anchored depths must
// reproduce the recorded (thread, block) steps, in order, and candidates
// that disagree are vetoed before any solver work.
type EventLog struct {
	// Records must be sorted by strictly increasing Index (one thread
	// starts one block per step).
	Records []EventRec
}

func (EventLog) Kind() string { return kindEventLog }

func (l EventLog) Compile(p *prog.Program, d *coredump.Dump) (core.Pruner, error) {
	if err := validateEventRecs(l.Records); err != nil {
		return nil, err
	}
	// Anchor each in-horizon record to its suffix depth: the step at
	// depth n is the execution's (Steps-n)-th block start (depth 1 is the
	// faulting/final block, counted by the VM like any other). Depth 1 is
	// the base case, pinned by the dump itself; records older than the
	// dump's step count are inconsistent metadata and anchor nothing.
	anchors := make(map[int]EventRec)
	for _, r := range l.Records {
		if r.Index >= d.Steps {
			continue
		}
		depth := int(d.Steps - r.Index)
		if depth < 2 {
			continue
		}
		anchors[depth] = r
	}
	return eventPruner{anchors: anchors}, nil
}

func validateEventRecs(recs []EventRec) error {
	for i, r := range recs {
		if i > 0 && r.Index <= recs[i-1].Index {
			return fmt.Errorf("event-log records not strictly increasing at %d", i)
		}
		if r.Tid < 0 || r.Block < 0 {
			return fmt.Errorf("event-log record %d: negative tid/block", i)
		}
	}
	return nil
}

func (l EventLog) encodePayload() []byte {
	var e wire.Encoder
	e.Uvarint(uint64(len(l.Records)))
	for _, r := range l.Records {
		e.Uvarint(r.Index)
		e.Varint(int64(r.Tid))
		e.Varint(int64(r.Block))
	}
	return e.Bytes()
}

func decodeEventLog(d *wire.Decoder) Source {
	n := d.Count("event-log count", maxRecords)
	recs := make([]EventRec, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		recs = append(recs, EventRec{
			Index: d.Uvarint(),
			Tid:   int(d.Varint()),
			Block: int(d.Varint()),
		})
	}
	if d.Err() == nil {
		if err := validateEventRecs(recs); err != nil {
			d.Fail("%v", err)
		}
	}
	return EventLog{Records: recs}
}

type eventPruner struct {
	noConstrain
	anchors map[int]EventRec
}

func (e eventPruner) Filter(used int, s core.StepInfo) (bool, bool) {
	a, ok := e.anchors[s.ChildDepth]
	if !ok {
		return true, false // unanchored depth: no evidence either way
	}
	return a.Tid == s.Tid && a.Block == s.Block, false
}

// --- Branch trace ----------------------------------------------------------

// BranchTrace is an Intel-PT-style partial branch trace: the
// taken/not-taken outcome of the most recent conditional branches
// (across all threads, in retirement order), oldest first. It is
// stricter than the LBR ring on conditional control flow — one bit per
// branch buys a much deeper window than sixteen from/to pairs — while
// recording nothing about unconditional transfers, which RES re-derives
// from the CFG.
type BranchTrace struct {
	// Bits are the outcomes, oldest first; true = taken (the branch went
	// to its primary target).
	Bits []bool
}

func (BranchTrace) Kind() string { return kindBranchTrace }

func (b BranchTrace) Compile(p *prog.Program, d *coredump.Dump) (core.Pruner, error) {
	return branchPruner{p: p, bits: b.Bits}, nil
}

func (b BranchTrace) encodePayload() []byte {
	var e wire.Encoder
	e.Uvarint(uint64(len(b.Bits)))
	e.Raw(packBits(b.Bits))
	return e.Bytes()
}

// packBits packs LSB-first; trailing pad bits are zero (a canonical-form
// invariant the decoder enforces).
func packBits(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

func decodeBranchTrace(d *wire.Decoder) Source {
	n := d.Count("branch-trace length", maxRecords)
	packed := d.Raw((n + 7) / 8)
	if d.Err() != nil {
		return BranchTrace{}
	}
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = packed[i/8]&(1<<(i%8)) != 0
	}
	// Canonical form: pad bits are zero.
	if n%8 != 0 && packed[len(packed)-1]>>(n%8) != 0 {
		d.Fail("branch-trace pad bits not zero")
	}
	return BranchTrace{Bits: bits}
}

type branchPruner struct {
	noConstrain
	p    *prog.Program
	bits []bool
}

// Filter consumes one trace bit per conditional transfer, newest first
// while walking backward, and vetoes candidates whose direction
// contradicts the recorded outcome. Unconditional transfers are not
// recorded and pass through; candidates beyond the window are allowed.
func (b branchPruner) Filter(used int, s core.StepInfo) (bool, bool) {
	if !s.HasTransfer || s.From < 0 || s.From >= len(b.p.Code) {
		return true, false
	}
	in := &b.p.Code[s.From]
	if in.Op != isa.OpBr {
		return true, false
	}
	idx := len(b.bits) - 1 - used
	if idx < 0 {
		return true, false // beyond the recorded horizon
	}
	if in.Target == in.Target2 {
		// Both directions land on the same block: the bit is
		// uninformative but the hardware still burned one.
		return true, true
	}
	taken := s.To == in.Target
	return taken == b.bits[idx], true
}

// --- Memory probes ---------------------------------------------------------

// Probe is one observed memory word: at global block index Index (before
// that block executed), address Addr held Value.
type Probe struct {
	Index uint64
	Addr  uint32
	Value int64
}

// MemProbe carries a few timestamped address/value observations — a
// production-side watchdog peeking at key globals every N blocks. Each
// in-horizon probe is discharged through the solver exactly like dump
// state: the symbolic pre-state of the anchored suffix depth must admit
// the observed value, which both prunes wrong paths and narrows the
// inferred pre-image.
type MemProbe struct {
	// Probes must be sorted by strictly increasing (Index, Addr).
	Probes []Probe
}

func (MemProbe) Kind() string { return kindMemProbe }

func (m MemProbe) Compile(p *prog.Program, d *coredump.Dump) (core.Pruner, error) {
	if err := validateProbes(m.Probes); err != nil {
		return nil, err
	}
	// A probe at block index I observed memory before that block ran; a
	// node at depth n holds the symbolic state before the (Steps-n)-th
	// block start, so the probe anchors depth Steps-I. Depth 1 is the
	// base case (its pre-state is the root node, never re-derived by
	// tryStep), so probes there are skipped like out-of-horizon ones.
	byDepth := make(map[int][]Probe)
	for _, pb := range m.Probes {
		if pb.Index >= d.Steps {
			continue
		}
		depth := int(d.Steps - pb.Index)
		if depth < 2 {
			continue
		}
		byDepth[depth] = append(byDepth[depth], pb)
	}
	return probePruner{byDepth: byDepth}, nil
}

func validateProbes(probes []Probe) error {
	for i, pb := range probes {
		if i == 0 {
			continue
		}
		prev := probes[i-1]
		if pb.Index < prev.Index || (pb.Index == prev.Index && pb.Addr <= prev.Addr) {
			return fmt.Errorf("mem-probe records not strictly increasing at %d", i)
		}
	}
	return nil
}

func (m MemProbe) encodePayload() []byte {
	var e wire.Encoder
	e.Uvarint(uint64(len(m.Probes)))
	for _, pb := range m.Probes {
		e.Uvarint(pb.Index)
		e.Uvarint(uint64(pb.Addr))
		e.Varint(pb.Value)
	}
	return e.Bytes()
}

func decodeMemProbe(d *wire.Decoder) Source {
	n := d.Count("mem-probe count", maxRecords)
	probes := make([]Probe, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		probes = append(probes, Probe{
			Index: d.Uvarint(),
			Addr:  uint32(d.Uvarint()),
			Value: d.Varint(),
		})
	}
	if d.Err() == nil {
		if err := validateProbes(probes); err != nil {
			d.Fail("%v", err)
		}
	}
	return MemProbe{Probes: probes}
}

type probePruner struct {
	allowAll
	byDepth map[int][]Probe
}

func (p probePruner) Constrain(_ int, s core.StepInfo, c *core.Child) (int, bool, bool) {
	probes := p.byDepth[s.ChildDepth]
	if len(probes) == 0 {
		return 0, false, true
	}
	for _, pb := range probes {
		c.Snap.AddCons(solver.Eq(c.Snap.MemAt(pb.Addr), symx.Const(pb.Value)))
	}
	return 0, true, true
}
