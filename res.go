// Package res is the public face of the reverse execution synthesis (RES)
// library, a reproduction of "Automated Debugging for Arbitrarily Long
// Executions" (Zamfir et al., HotOS 2013).
//
// The workflow mirrors the paper:
//
//  1. Assemble a program for the RES virtual machine (Assemble).
//  2. Run it in production mode (Run); on failure you get a coredump —
//     the only runtime artifact, no recording.
//  3. Open an analysis session for the program (NewAnalyzer). The session
//     precomputes the backward-CFG predecessor index once, is safe for
//     concurrent use, and is meant to live as long as the program does —
//     one session serves every coredump the program ever produces.
//  4. Analyze coredumps (Analyzer.Analyze): RES walks the control-flow
//     graph backward from the failure, building symbolic snapshots and
//     keeping only predecessor hypotheses consistent with the dump, until
//     it has an execution suffix that provably ends in the observed
//     failure. The call takes a context.Context — cancellation and
//     deadlines reach all the way into the solver, and a timed-out
//     analysis returns its partial Result instead of hanging. Many dumps
//     are processed concurrently with Analyzer.AnalyzeBatch.
//  5. The suffix replays deterministically (Replay), and the instrumented
//     replay identifies the root cause (the Result's Cause) — including
//     data races and atomicity violations whose failure manifests far
//     from the cause.
//
// Analyses are tuned with functional options (WithMaxDepth, WithLBR,
// WithMatchOutputs, WithSolverOptions, ...), given either to NewAnalyzer
// as session defaults or to an individual Analyze call as overrides, and
// observed in flight through an event stream (WithObserver). Results
// render for humans (Result.Describe) or machines (Result.JSON).
//
// The session also answers the paper's other questions: a coredump no
// feasible suffix can explain is flagged as a likely hardware error
// (Analyzer.ClassifyHardware), and the taint verdict classifies crashes
// as attacker-controllable.
package res

import (
	"fmt"
	"time"

	"res/internal/asm"
	"res/internal/checkpoint"
	"res/internal/core"
	"res/internal/coredump"
	"res/internal/evidence"
	"res/internal/obs"
	"res/internal/prog"
	"res/internal/replay"
	"res/internal/rootcause"
	"res/internal/taint"
	"res/internal/trace"
	"res/internal/vm"
)

// Re-exported core types, so callers only import this package.
type (
	// Program is an assembled RES-VM program.
	Program = prog.Program
	// Dump is a coredump: the post-failure snapshot RES consumes.
	Dump = coredump.Dump
	// Cause is an identified root cause.
	Cause = rootcause.Cause
	// Suffix is a synthesized, replayable execution suffix.
	Suffix = trace.Suffix
	// RunConfig configures a concrete (production) execution.
	RunConfig = vm.Config

	// EvidenceSource is one piece of production-side evidence that can
	// prune the backward search (WithEvidence). Build sources with the
	// Evidence* constructors, a recorded run (NewEvidenceRecorder), or by
	// decoding wire bytes (DecodeEvidence).
	EvidenceSource = evidence.Source
	// EvidenceSet is an ordered collection of evidence sources with a
	// canonical wire encoding and content fingerprint.
	EvidenceSet = evidence.Set
	// EventRec is one sampled scheduling breadcrumb (block index, thread,
	// block) for EvidenceEventLog.
	EventRec = evidence.EventRec
	// ProbeRec is one timestamped memory observation for
	// EvidenceMemProbe.
	ProbeRec = evidence.Probe
	// EvidenceRecordConfig tunes the production-side evidence recorder.
	EvidenceRecordConfig = evidence.RecordConfig
	// EvidenceRecorder collects evidence from a live VM run.
	EvidenceRecorder = evidence.Recorder

	// CheckpointRing is a recorded ring of execution checkpoints plus the
	// schedule/input log window that makes them replayable
	// (WithCheckpoints). Produce one with NewCheckpointRecorder or by
	// decoding wire bytes (DecodeCheckpoints).
	CheckpointRing = checkpoint.Ring
	// CheckpointConfig tunes the checkpoint recorder (interval, ring cap,
	// log window).
	CheckpointConfig = checkpoint.Config
	// CheckpointRecorder captures a checkpoint ring from a live VM run.
	CheckpointRecorder = checkpoint.Recorder
	// CheckpointAnchor describes how a checkpointed analysis was anchored:
	// the checkpoint step, the suffix depth it pins, and whether forward
	// replay verified the failure reproduces from it.
	CheckpointAnchor = checkpoint.Anchor
)

// EvidenceLBR interprets the dump's hardware branch ring under the given
// recording mode — the Source form of WithLBR.
func EvidenceLBR(mode LBRMode) EvidenceSource { return evidence.LBR{Mode: mode} }

// EvidenceOutputLog matches suffix OUTPUT records against the dump's
// output-log tail — the Source form of WithMatchOutputs.
func EvidenceOutputLog() EvidenceSource { return evidence.OutputLog{} }

// EvidenceEventLog builds a sparse timestamped schedule sample: each
// record pins one suffix depth to a (thread, block) step.
func EvidenceEventLog(recs []EventRec) EvidenceSource { return evidence.EventLog{Records: recs} }

// EvidenceBranchTrace builds an Intel-PT-style partial branch trace: the
// taken/not-taken outcomes of the most recent conditional branches,
// oldest first.
func EvidenceBranchTrace(bits []bool) EvidenceSource { return evidence.BranchTrace{Bits: bits} }

// EvidenceMemProbe builds a set of timestamped memory observations,
// discharged through the solver like dump state.
func EvidenceMemProbe(probes []ProbeRec) EvidenceSource { return evidence.MemProbe{Probes: probes} }

// EncodeEvidence renders evidence sources in their canonical wire form
// (the bytes resd accepts as a dump's evidence attachment).
func EncodeEvidence(srcs ...EvidenceSource) []byte { return evidence.Set(srcs).Encode() }

// DecodeEvidence parses wire-form evidence bytes.
func DecodeEvidence(b []byte) (EvidenceSet, error) { return evidence.Decode(b) }

// NewEvidenceRecorder creates a recorder that collects evidence from a
// live VM run of p: install rec.Hooks() in the RunConfig, rec.Bind the
// VM, run, then rec.Evidence().
func NewEvidenceRecorder(p *Program, cfg EvidenceRecordConfig) *EvidenceRecorder {
	return evidence.NewRecorder(p, cfg)
}

// NewCheckpointRecorder creates a recorder that captures a checkpoint
// ring from a live VM run of p: install rec.Hooks() in the RunConfig
// (compose with other hooks via vm.MergeHooks / MergeRunHooks), rec.Bind
// the VM, run, then rec.Ring().
func NewCheckpointRecorder(p *Program, cfg CheckpointConfig) *CheckpointRecorder {
	return checkpoint.NewRecorder(p, cfg)
}

// MergeRunHooks composes several RunConfig hook sets into one; every
// non-nil callback of every argument fires, in argument order. Use it to
// record evidence and checkpoints in the same run.
func MergeRunHooks(hs ...vm.Hooks) vm.Hooks { return vm.MergeHooks(hs...) }

// EncodeCheckpoints renders a checkpoint ring in its canonical wire form
// (the bytes resd accepts as a dump's checkpoint attachment). An empty
// ring encodes to nil.
func EncodeCheckpoints(r *CheckpointRing) []byte { return r.Encode() }

// DecodeCheckpoints parses wire-form checkpoint ring bytes. Empty input
// yields a nil ring.
func DecodeCheckpoints(b []byte) (*CheckpointRing, error) { return checkpoint.Decode(b) }

// Assemble builds a program from RES assembly source.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// MustAssemble is Assemble that panics on error.
func MustAssemble(src string) *Program { return asm.MustAssemble(src) }

// Run executes the program in production mode and returns its coredump,
// or nil if the run exits cleanly.
func Run(p *Program, cfg RunConfig) (*Dump, error) {
	v, err := vm.New(p, cfg)
	if err != nil {
		return nil, err
	}
	return v.Run()
}

// Result is the outcome of an analysis.
type Result struct {
	// Report is the raw search report (statistics, all feasible nodes).
	Report *core.Report
	// Cause is the identified root cause (nil only when no suffix could
	// be synthesized at all).
	Cause *Cause
	// CauseDepth is the suffix length at which the cause was identified.
	CauseDepth int
	// Suffix is the synthesized suffix supporting the cause.
	Suffix *Suffix
	// Synthesized is the full pre-image + schedule bundle for replay.
	Synthesized *core.Synthesized
	// Replay is the verification replay of that suffix: the checked,
	// hooked replay the cause was read from, or the plain replay run
	// after it when the checked one stopped at a heap fault.
	Replay *replay.Result
	// Exploitability is the taint verdict for the failure.
	Exploitability *taint.Report
	// Evidence is the provenance of the analysis: the kinds of the
	// evidence sources supplied via WithEvidence, in application order
	// (nil when the analysis used none beyond the classic dump hints).
	Evidence []string
	// CheckpointAnchor is set when the search was anchored on a recorded
	// checkpoint (WithCheckpoints): the suffix depth was bounded by
	// Depth instead of the execution length. Nil when the analysis ran
	// unanchored (no ring, or escalation fell back to the full search).
	CheckpointAnchor *CheckpointAnchor
	// HardwareSuspect: no feasible suffix explains the dump.
	HardwareSuspect bool
	// Partial is set when the analysis was cut short by context
	// cancellation or deadline: the fields above reflect the best answer
	// found before the cutoff, not a completed search.
	Partial bool
	// Elapsed is the wall-clock analysis time.
	Elapsed time.Duration
	// Trace is the analysis's observability span tree (WithTrace):
	// evidence compilation, checkpoint bisection probes, every search
	// depth, and cause extraction, each with wall-clock timings. Nil
	// when tracing was off. Like Elapsed, the trace carries timings and
	// is excluded from the report-determinism guarantee.
	Trace *obs.TraceData
}

// AnalysisTrace is the wire form of an analysis's observability span
// tree (see WithTrace): spans in creation order, root first, with
// Chrome trace-event export via its ChromeTrace method.
type AnalysisTrace = obs.TraceData

// Replay re-executes a synthesized suffix and reports whether it
// reproduces the dump exactly.
func Replay(p *Program, syn *core.Synthesized, d *Dump) (*replay.Result, error) {
	return replay.Run(p, syn, d, replay.Config{})
}

// Describe renders an analysis result for humans.
func (r *Result) Describe() string {
	if r.Cause == nil {
		if r.HardwareSuspect {
			return "no feasible execution suffix: likely hardware error"
		}
		if r.Partial {
			return "analysis interrupted before a root cause was identified"
		}
		return "no root cause identified within budget"
	}
	s := fmt.Sprintf("root cause: %s (suffix depth %d, %v)", r.Cause, r.CauseDepth, r.Elapsed.Round(time.Millisecond))
	if r.Partial {
		s += "\nnote: analysis interrupted; this is the best answer found before the cutoff"
	}
	if r.Exploitability != nil && r.Exploitability.Exploitable {
		s += "\nexploitability: ATTACKER-CONTROLLED (" + r.Exploitability.Detail + ")"
	}
	return s
}
