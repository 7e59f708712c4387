// Package evidence is the pluggable production-hint subsystem: every
// piece of cheap evidence a production deployment can collect about a
// failed execution — branch records, error logs, sampled event
// timestamps, partial branch traces, periodic memory probes — is a
// Source that compiles into backward-search constraints for RES.
//
// The paper's bet (§2.4) is that a coredump plus whatever hints
// production already has is enough to synthesize a failing suffix. The
// seed system hard-wired two such hints (the LBR ring and output-log
// matching); this package makes the hint space open-ended: a Source
// lowers its evidence into a core.Pruner — a pre-step candidate filter,
// post-step symbolic constraints discharged through the incremental
// solver, or both — and carries a canonical wire encoding with a content
// fingerprint so evidence participates in the ingestion service's
// content-addressed caching.
//
// Timestamps are the VM's block-step counter: the dump records how many
// basic blocks executed before the failure (coredump.Dump.Steps), so an
// evidence record stamped with block index I pins suffix depth
// Steps - I exactly — the discrete analogue of Maruyama-style
// timestamp-based execution control.
package evidence

import (
	"fmt"

	"res/internal/core"
	"res/internal/coredump"
	"res/internal/prog"
	"res/internal/wire"
)

// Source is one piece of production-side evidence about the failed
// execution. A Source is immutable once built; Compile may be called
// concurrently for different dumps.
type Source interface {
	// Kind is the stable wire tag identifying the source type.
	Kind() string
	// Compile lowers the evidence into a search pruner for one
	// program+dump pair. The returned pruner must be read-only (safe to
	// share across the engine's candidate workers).
	Compile(p *prog.Program, d *coredump.Dump) (core.Pruner, error)
	// encodePayload renders the source's canonical payload bytes (the
	// wire form minus the kind tag). Internal: encoding goes through
	// Set.Encode so the container stays canonical.
	encodePayload() []byte
}

// Set is an ordered collection of evidence sources. Order is
// significant: it fixes both the wire encoding (and so the fingerprint)
// and the order pruners are applied in the search.
type Set []Source

// Kinds returns the source kinds in order.
func (s Set) Kinds() []string {
	out := make([]string, len(s))
	for i, src := range s {
		out[i] = src.Kind()
	}
	return out
}

// Compile lowers every source against one program+dump pair, in order.
func (s Set) Compile(p *prog.Program, d *coredump.Dump) ([]core.Pruner, error) {
	if len(s) == 0 {
		return nil, nil
	}
	if len(s) > core.MaxPruners {
		return nil, fmt.Errorf("evidence: %d sources exceeds the engine's %d-pruner limit", len(s), core.MaxPruners)
	}
	out := make([]core.Pruner, len(s))
	for i, src := range s {
		pr, err := src.Compile(p, d)
		if err != nil {
			return nil, fmt.Errorf("evidence: compiling %s: %w", src.Kind(), err)
		}
		out[i] = pr
	}
	return out, nil
}

// Fingerprint is the content address of the set: the hex SHA-256 of its
// canonical encoding. An empty set fingerprints to the empty string, so
// "no evidence" and "evidence present" can never collide in a cache key.
func (s Set) Fingerprint() string {
	if len(s) == 0 {
		return ""
	}
	return wire.Fingerprint(s.Encode())
}
