// Package fixverify closes the debugging loop: given a failure whose
// execution suffix RES has synthesized, it mechanically checks a proposed
// fix. A fix is a structured patch over the program's assembly source —
// replace/insert/delete operations keyed by assembler label — with a
// canonical wire form (RESPATCH1) so the ingestion service can cache
// verdicts by (failure tuple, patch) content. Verification replays the
// synthesized suffix under the patched program through the hypothesis
// harness and reports one of three verdicts: the failure still reproduces
// (not-fixed), the failure provably cannot fire in the replayed window
// (fixed), or the patched execution diverges before the patch takes
// effect, so the repro window cannot judge it (inconclusive).
package fixverify

import (
	"fmt"
	"strings"

	"res/internal/wire"
)

// OpKind classifies a patch operation.
type OpKind uint8

const (
	// OpReplace swaps the labeled region's body for the op's lines.
	OpReplace OpKind = iota
	// OpInsert prepends the op's lines to the labeled region's body.
	OpInsert
	// OpDelete removes the labeled region's body (the label line stays).
	OpDelete
)

var opNames = map[OpKind]string{
	OpReplace: "replace", OpInsert: "insert", OpDelete: "delete",
}

func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one patch operation. Label names an assembler label (or function
// header) in the target source; the op acts on that label's region — the
// lines after the label up to the next label, function header, or .global
// directive. Lines carry assembly text for replace/insert and must be
// empty for delete.
type Op struct {
	Kind  OpKind
	Label string
	Lines []string
}

// Patch is an ordered list of operations over one program's source. Ops
// apply in order, each against the text the previous ops produced. A
// zero-op patch is the identity.
type Patch struct {
	Ops []Op
}

// The wire form is a canonical container: magic, op count, then each op
// as (kind, label, line count, lines). Every numeric field is a varint
// and Decode enforces the construction invariants (valid kind, wellformed
// label, no embedded newlines, delete carries no lines) plus a
// trailing-byte check, so decode∘encode is the identity on canonical
// bytes and encode∘decode is a fixed point on anything that decodes.
const wireMagic = "RESPATCH1"

// Decode limits: a corrupt or malicious stream must fail fast, not
// allocate unboundedly.
const (
	maxOps     = 1 << 10
	maxLines   = 1 << 12
	maxLineLen = 1 << 12
	maxLabel   = 256
)

// validLabel reports whether s can name an assembler label on the wire:
// nonempty, bounded, and free of whitespace, colons, and newlines.
func validLabel(s string) bool {
	if s == "" || len(s) > maxLabel {
		return false
	}
	return !strings.ContainsAny(s, " \t\r\n:;#")
}

// Validate checks the patch's construction invariants (the same ones
// Decode enforces on the wire).
func (p *Patch) Validate() error {
	if len(p.Ops) > maxOps {
		return fmt.Errorf("fixverify: %d ops exceeds the %d-op limit", len(p.Ops), maxOps)
	}
	for i, op := range p.Ops {
		if op.Kind > OpDelete {
			return fmt.Errorf("fixverify: op %d: unknown kind %d", i, op.Kind)
		}
		if !validLabel(op.Label) {
			return fmt.Errorf("fixverify: op %d: bad label %q", i, op.Label)
		}
		if op.Kind == OpDelete && len(op.Lines) != 0 {
			return fmt.Errorf("fixverify: op %d: delete carries %d lines", i, len(op.Lines))
		}
		if len(op.Lines) > maxLines {
			return fmt.Errorf("fixverify: op %d: %d lines exceeds the %d-line limit", i, len(op.Lines), maxLines)
		}
		for j, ln := range op.Lines {
			if len(ln) > maxLineLen {
				return fmt.Errorf("fixverify: op %d line %d: too long (%d bytes)", i, j, len(ln))
			}
			if strings.ContainsAny(ln, "\n\r") {
				return fmt.Errorf("fixverify: op %d line %d: embedded newline", i, j)
			}
		}
	}
	return nil
}

// Encode renders the patch in its canonical wire form.
func (p *Patch) Encode() []byte {
	e := wire.NewEncoder(wireMagic)
	e.Uvarint(uint64(len(p.Ops)))
	for _, op := range p.Ops {
		e.Uvarint(uint64(op.Kind))
		e.Str(op.Label)
		e.Uvarint(uint64(len(op.Lines)))
		for _, ln := range op.Lines {
			e.Str(ln)
		}
	}
	return e.Bytes()
}

// Decode parses wire-form patch bytes. Empty input is an error: a patch
// is always explicit (the identity patch is a zero-op patch, which still
// carries the magic).
func Decode(b []byte) (*Patch, error) {
	d := wire.NewDecoder(b, wireMagic)
	n := d.Count("op count", maxOps)
	p := &Patch{Ops: make([]Op, 0, n)}
	for i := 0; i < n && d.Err() == nil; i++ {
		kind := d.Uvarint()
		label := d.Str("label length", maxLabel)
		ln := d.Count("line count", maxLines)
		if d.Err() != nil {
			break
		}
		if kind > uint64(OpDelete) {
			d.Fail("op %d: unknown kind %d", i, kind)
			break
		}
		if !validLabel(label) {
			d.Fail("op %d: bad label %q", i, label)
			break
		}
		if OpKind(kind) == OpDelete && ln != 0 {
			d.Fail("op %d: delete carries %d lines", i, ln)
			break
		}
		op := Op{Kind: OpKind(kind), Label: label}
		for j := 0; j < ln && d.Err() == nil; j++ {
			line := d.Str("line length", maxLineLen)
			if strings.ContainsAny(line, "\n\r") {
				d.Fail("op %d line %d: embedded newline", i, j)
			}
			op.Lines = append(op.Lines, line)
		}
		p.Ops = append(p.Ops, op)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("fixverify: patch: %w", err)
	}
	return p, nil
}

// Fingerprint is the content address of the patch: the hex SHA-256 of
// its canonical encoding. Distinct patches get distinct fingerprints;
// the service keys cached verdicts by (failure tuple, patch fingerprint).
func (p *Patch) Fingerprint() string { return wire.Fingerprint(p.Encode()) }
