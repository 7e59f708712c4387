package evidence

import (
	"fmt"

	"res/internal/core"
	"res/internal/wire"
)

// The wire form is a canonical container: magic, source count, then each
// source as (kind string, payload length, payload). Every numeric field
// is a varint, payloads are themselves canonical (decode validates the
// invariants the encoders maintain — sorted indexes, zeroed padding
// bits), and Decode rejects trailing bytes at both the container and the
// payload level, so decode∘encode is the identity on canonical bytes and
// encode∘decode is a fixed point on anything that decodes at all. That
// fixed point is what lets the ingestion service address evidence by
// content: two byte streams describing the same evidence canonicalize to
// the same fingerprint.
const wireMagic = "RESEVID1"

// Decode limits: a malicious or corrupt stream must fail fast, not
// allocate unboundedly. maxSources mirrors core.MaxPruners — the engine
// tracks one consume bit per pruner in a 64-bit mask, so larger sets
// must never reach it.
const (
	maxSources = core.MaxPruners
	maxRecords = 1 << 20
	maxPayload = 1 << 24
)

// Encode renders the set in its canonical wire form.
func (s Set) Encode() []byte {
	e := wire.NewEncoder(wireMagic)
	e.Uvarint(uint64(len(s)))
	for _, src := range s {
		e.Str(src.Kind())
		e.Blob(src.encodePayload())
	}
	return e.Bytes()
}

// Decode parses a wire-form evidence set. nil/empty input decodes to a
// nil set (no evidence); anything else must carry the magic and be fully
// consumed. Unknown source kinds are an error: silently dropping
// evidence would let a newer producer think an older analyzer used hints
// it never understood.
func Decode(b []byte) (Set, error) {
	if len(b) == 0 {
		return nil, nil
	}
	d := wire.NewDecoder(b, wireMagic)
	n := d.Count("source count", maxSources)
	set := make(Set, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		kind := d.Str("kind length", 256)
		payload := d.Blob("payload length", maxPayload)
		if d.Err() != nil {
			break
		}
		src, err := decodeSource(kind, payload)
		if err != nil {
			return nil, err
		}
		set = append(set, src)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("evidence: %w", err)
	}
	return set, nil
}

// decodeSource dispatches one payload to its kind's decoder. Every
// decoder must consume the payload exactly and enforce its canonical
// invariants.
func decodeSource(kind string, payload []byte) (Source, error) {
	d := wire.NewDecoder(payload, "")
	var src Source
	switch kind {
	case kindLBR:
		src = decodeLBR(d)
	case kindOutputLog:
		src = OutputLog{}
	case kindEventLog:
		src = decodeEventLog(d)
	case kindBranchTrace:
		src = decodeBranchTrace(d)
	case kindMemProbe:
		src = decodeMemProbe(d)
	default:
		return nil, fmt.Errorf("evidence: unknown source kind %q", kind)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("evidence: %s: %w", kind, err)
	}
	return src, nil
}
