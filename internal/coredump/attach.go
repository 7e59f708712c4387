package coredump

import (
	"fmt"
	"sort"

	"res/internal/wire"
)

// Attachment container: a dump plus named opaque attachments (evidence
// wire bytes, and whatever future producers add) in one file. The dump's
// content identity is unchanged — fingerprints hash the inner dump bytes
// alone — so attaching evidence never perturbs dump-level dedup; the
// attachments carry their own identity (the evidence fingerprint) into
// the analysis cache key instead.
const attachMagic = "RESDATT1"

// Decode hardening bounds: one attachment's size, the attachment count,
// and a name's length.
const (
	maxAttachment  = 1 << 26
	maxAttachments = 1 << 8
	maxName        = 1 << 20
)

// EncodeAttached serializes a dump-with-attachments container: the
// serialized dump followed by the attachments in sorted-name order (the
// canonical form).
func EncodeAttached(dump []byte, attachments map[string][]byte) ([]byte, error) {
	e := wire.NewEncoder(attachMagic)
	e.Blob(dump)
	names := make([]string, 0, len(attachments))
	for name := range attachments {
		names = append(names, name)
	}
	sort.Strings(names)
	e.Uvarint(uint64(len(names)))
	for _, name := range names {
		e.Str(name)
		e.Blob(attachments[name])
	}
	return e.Bytes(), nil
}

// DecodeAttached splits a container into the dump bytes and the
// attachment map. A plain dump (RESDUMP1 magic) passes through with nil
// attachments, so every consumer of dump files accepts both forms.
func DecodeAttached(b []byte) (dump []byte, attachments map[string][]byte, err error) {
	if len(b) >= len(dumpMagic) && string(b[:len(dumpMagic)]) == dumpMagic {
		return b, nil, nil
	}
	dec := wire.NewDecoder(b, attachMagic)
	dump = dec.Blob("dump length", maxAttachment)
	n := dec.Count("attachment count", maxAttachments)
	for i := 0; i < n && dec.Err() == nil; i++ {
		name := dec.Str("attachment name length", maxName)
		blob := dec.Blob("attachment length", maxAttachment)
		if dec.Err() != nil {
			break
		}
		if attachments == nil {
			attachments = make(map[string][]byte, n)
		}
		if _, dup := attachments[name]; dup {
			dec.Fail("duplicate attachment %q", name)
			break
		}
		attachments[name] = blob
	}
	if err := dec.Finish(); err != nil {
		return nil, nil, fmt.Errorf("coredump: attachments: %w", err)
	}
	return dump, attachments, nil
}

// DecodeAttachedLenient is DecodeAttached with degraded-mode recovery:
// when the container is damaged but the dump section itself is intact
// (the dump is length-prefixed first, so attachment-area corruption
// cannot reach it), the dump is returned with nil attachments and a
// non-empty warning instead of an error. A crash dump whose evidence
// sidecar rotted is still a crash dump — the analysis runs without the
// pruning rather than not at all. Damage to the dump section itself
// still fails.
func DecodeAttachedLenient(b []byte) (dump []byte, attachments map[string][]byte, warn string, err error) {
	dump, attachments, err = DecodeAttached(b)
	if err == nil {
		return dump, attachments, "", nil
	}
	dec := wire.NewDecoder(b, attachMagic)
	blob := dec.Blob("dump length", maxAttachment)
	if dec.Err() != nil {
		return nil, nil, "", err
	}
	return blob, nil, fmt.Sprintf("attachments dropped (%v)", err), nil
}

// EvidenceAttachment is the well-known attachment name for evidence wire
// bytes (internal/evidence's canonical encoding).
const EvidenceAttachment = "evidence"

// CheckpointAttachment is the well-known attachment name for checkpoint
// ring wire bytes (internal/checkpoint's canonical encoding).
const CheckpointAttachment = "checkpoints"
