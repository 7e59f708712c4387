package res

import (
	"errors"

	"res/internal/fixverify"
)

// FixPatch is a structured source patch for fix verification: an ordered
// list of replace/insert/delete operations keyed by assembler label.
// Encode gives its canonical wire form (RESPATCH1), FormatText the
// human-authored text form, and Fingerprint its content address.
type FixPatch = fixverify.Patch

// FixPatchOp is one patch operation.
type FixPatchOp = fixverify.Op

// FixVerdict is the outcome of verifying a candidate fix against a
// reproduced failure.
type FixVerdict = fixverify.Result

// Fix verification verdicts.
const (
	// FixVerdictFixed: the patched program survives the reproduced
	// failure schedule and the residual failure constraint is
	// unsatisfiable.
	FixVerdictFixed = fixverify.VerdictFixed
	// FixVerdictNotFixed: the failure still reproduces under the patch
	// (or the residual failure constraint remains satisfiable).
	FixVerdictNotFixed = fixverify.VerdictNotFixed
	// FixVerdictInconclusive: the patch changes the execution before the
	// reproduced window's anchor, so the recorded schedule cannot be
	// replayed through it.
	FixVerdictInconclusive = fixverify.VerdictInconclusive
)

// ParsePatch parses the human-authored patch text format
// (replace/insert/delete <label> ... end).
func ParsePatch(src string) (*FixPatch, error) { return fixverify.ParseText(src) }

// DecodePatch accepts a patch in either form: canonical RESPATCH1 wire
// bytes or the text format.
func DecodePatch(b []byte) (*FixPatch, error) { return fixverify.DecodeAny(b) }

// VerifyFix replays an analysis's reproduced failure suffix through a
// patched version of the program and reports whether the patch fixes
// the failure.
//
// source must be the assembly source the analyzed program was built
// from (patches are keyed by its labels). r must be an analysis Result
// for that program with a synthesized suffix — typically the analysis
// whose cause the patch claims to fix, or the re-analysis of a
// minimized repro (Minimize) for a faster verdict.
//
// The verdict is "fixed" when the patched program survives the
// reproduced schedule and the residual failure constraint at the
// original failure site is unsatisfiable; "not-fixed" when the failure
// (or a successor of it) still occurs or the residual constraint stays
// satisfiable; "inconclusive" when the patch alters the execution
// before the reproduced window first reaches patched code, so the
// recorded schedule cannot be driven through it — in that case, record
// a fresh failure of the patched program and analyze that instead.
func VerifyFix(source string, patch *FixPatch, r *Result, d *Dump) (*FixVerdict, error) {
	if r == nil || r.Synthesized == nil {
		return nil, errors.New("res: VerifyFix needs an analysis result with a synthesized suffix")
	}
	return fixverify.Verify(source, patch, r.Synthesized, d)
}
