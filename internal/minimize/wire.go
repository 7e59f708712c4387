package minimize

import (
	"bytes"
	"encoding/hex"
	"fmt"

	"res/internal/checkpoint"
	"res/internal/evidence"
	"res/internal/wire"
)

// MinimalRepro is a delta-debugged minimal reproduction: the smallest
// attachment set and tightest search budgets that still re-analyze to
// the same root-cause key as the original failure tuple. It is the
// artifact a bug report ships instead of the full production evidence.
type MinimalRepro struct {
	// CauseKey is the preserved root-cause bucketing key; every reduction
	// kept during minimization re-analyzed to exactly this key.
	CauseKey string
	// ProgramFP and DumpFP name the tuple the repro reduces (hex SHA-256
	// content fingerprints; either may be empty when unknown).
	ProgramFP string
	DumpFP    string
	// Evidence is the minimized evidence attachment in canonical wire
	// form (nil when the dump alone reproduces the cause).
	Evidence []byte
	// Checkpoints is the minimized checkpoint ring in canonical wire form
	// (nil when the ring was dropped or never present).
	Checkpoints []byte
	// MaxDepth and MaxNodes are the minimized search budgets that still
	// reproduce.
	MaxDepth int
	MaxNodes int
	// SuffixDepth is the shortest suffix depth at which the cause was
	// re-identified.
	SuffixDepth int
	// OrigSources and MinSources count the evidence attachment set before
	// and after minimization.
	OrigSources int
	MinSources  int
	// Runs counts the analyzer re-runs the minimization spent; Reductions
	// counts the reductions it kept.
	Runs       int
	Reductions int
}

// The wire form is a canonical container: magic, the cause key and tuple
// fingerprints, the minimized budgets and stats, then the minimized
// attachments as length-prefixed canonical sub-encodings. Decode
// re-validates the sub-encodings against their own codecs (and rejects
// non-canonical bytes), so decode∘encode is the identity on canonical
// bytes and the fingerprint is a true content address.
const wireMagic = "RESMINR1"

const (
	maxKey      = 1 << 10
	maxFP       = 64
	maxInt      = 1 << 30
	maxAttach   = 1 << 26
	maxSrcCount = 1 << 20
)

// Encode renders the repro in its canonical wire form.
func (m *MinimalRepro) Encode() []byte {
	e := wire.NewEncoder(wireMagic)
	e.Str(m.CauseKey)
	e.Str(m.ProgramFP)
	e.Str(m.DumpFP)
	e.Uvarint(uint64(m.MaxDepth))
	e.Uvarint(uint64(m.MaxNodes))
	e.Uvarint(uint64(m.SuffixDepth))
	e.Uvarint(uint64(m.OrigSources))
	e.Uvarint(uint64(m.MinSources))
	e.Uvarint(uint64(m.Runs))
	e.Uvarint(uint64(m.Reductions))
	e.Blob(m.Evidence)
	e.Blob(m.Checkpoints)
	return e.Bytes()
}

// Decode parses wire-form minimal-repro bytes, enforcing canonicality:
// the magic, bounded fields, hex fingerprints, and attachment
// sub-encodings that round-trip byte-identically through their own
// codecs.
func Decode(b []byte) (*MinimalRepro, error) {
	d := wire.NewDecoder(b, wireMagic)
	m := &MinimalRepro{
		CauseKey:    d.Str("cause key length", maxKey),
		ProgramFP:   d.Str("program fingerprint length", maxFP),
		DumpFP:      d.Str("dump fingerprint length", maxFP),
		MaxDepth:    d.Count("max depth", maxInt),
		MaxNodes:    d.Count("max nodes", maxInt),
		SuffixDepth: d.Count("suffix depth", maxInt),
		OrigSources: d.Count("original source count", maxSrcCount),
		MinSources:  d.Count("minimized source count", maxSrcCount),
		Runs:        d.Count("run count", maxInt),
		Reductions:  d.Count("reduction count", maxInt),
		Evidence:    d.Blob("evidence length", maxAttach),
		Checkpoints: d.Blob("checkpoint length", maxAttach),
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("minimize: repro: %w", err)
	}
	if m.CauseKey == "" {
		return nil, fmt.Errorf("minimize: repro carries no cause key")
	}
	if !validFP(m.ProgramFP) || !validFP(m.DumpFP) {
		return nil, fmt.Errorf("minimize: malformed tuple fingerprint")
	}
	if m.MinSources > m.OrigSources {
		return nil, fmt.Errorf("minimize: minimized source count %d exceeds original %d", m.MinSources, m.OrigSources)
	}
	// The attachments must themselves be canonical: decode through their
	// codecs and require a byte-identical re-encoding.
	if m.Evidence != nil {
		set, err := evidence.Decode(m.Evidence)
		if err != nil {
			return nil, fmt.Errorf("minimize: evidence attachment: %w", err)
		}
		if !bytes.Equal(set.Encode(), m.Evidence) {
			return nil, fmt.Errorf("minimize: evidence attachment is not canonical")
		}
	}
	if m.Checkpoints != nil {
		ring, err := checkpoint.Decode(m.Checkpoints)
		if err != nil {
			return nil, fmt.Errorf("minimize: checkpoint attachment: %w", err)
		}
		if !bytes.Equal(ring.Encode(), m.Checkpoints) {
			return nil, fmt.Errorf("minimize: checkpoint attachment is not canonical")
		}
	}
	return m, nil
}

// validFP accepts the empty string or a 64-char lowercase hex SHA-256.
func validFP(s string) bool {
	if s == "" {
		return true
	}
	if len(s) != maxFP {
		return false
	}
	_, err := hex.DecodeString(s)
	if err != nil {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'F' {
			return false
		}
	}
	return true
}

// Fingerprint is the content address of the repro: the hex SHA-256 of
// its canonical encoding.
func (m *MinimalRepro) Fingerprint() string { return wire.Fingerprint(m.Encode()) }
