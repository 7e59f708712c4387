// Package store is the content-addressed dump/result store behind the
// ingestion service: analysis artifacts are keyed by fingerprint tuples
// (program hash, dump hash, options hash), so resubmitting an identical
// coredump of an identical program under identical analysis options is a
// cache hit that never reaches the solver. The store has an in-memory LRU
// tier and an optional on-disk tier that survives process restarts.
//
// The canonical byte forms are the ones the repo already ships: a dump's
// identity is the byte stream of coredump.(*Dump).Marshal, and a program's
// identity is its isa.MarshalStream instruction encoding plus globals and
// layout. Two dumps that serialize identically are the same dump, no
// matter how their in-memory structs were produced.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"

	"res/internal/coredump"
	"res/internal/isa"
	"res/internal/prog"
)

// Fingerprint is a SHA-256 content hash.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short returns the conventional abbreviated form (first 12 hex digits)
// used in logs and shard names.
func (f Fingerprint) Short() string { return hex.EncodeToString(f[:6]) }

// IsZero reports whether the fingerprint is unset.
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// MarshalText renders the fingerprint as the hex of String, which makes
// a fingerprint a hex string in JSON.
func (f Fingerprint) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// UnmarshalText parses the hex form produced by MarshalText.
func (f *Fingerprint) UnmarshalText(text []byte) error {
	if len(text) != hex.EncodedLen(len(f)) {
		return fmt.Errorf("store: bad fingerprint %q: want %d hex digits", text, hex.EncodedLen(len(f)))
	}
	var g Fingerprint
	if _, err := hex.Decode(g[:], text); err != nil {
		return fmt.Errorf("store: bad fingerprint %q: %w", text, err)
	}
	*f = g
	return nil
}

// ParseFingerprint parses the hex form produced by String.
func ParseFingerprint(s string) (Fingerprint, error) {
	var f Fingerprint
	err := f.UnmarshalText([]byte(s))
	return f, err
}

// BytesFingerprint hashes raw bytes. Callers addressing dumps should
// prefer DumpFingerprint, which canonicalizes first.
func BytesFingerprint(b []byte) Fingerprint { return sha256.Sum256(b) }

// DumpFingerprint returns the dump's content address and its canonical
// serialized bytes (the coredump wire form, which is deterministic: locks
// are emitted in sorted order and the memory image encoding is
// positional).
func DumpFingerprint(d *coredump.Dump) (Fingerprint, []byte, error) {
	b, err := d.Marshal()
	if err != nil {
		return Fingerprint{}, nil, err
	}
	return sha256.Sum256(b), b, nil
}

// CanonicalizeDump parses serialized dump bytes and re-serializes them, so
// the returned fingerprint and bytes are independent of any non-canonical
// variation in the input encoding. It also validates the bytes: garbage
// in, error out.
func CanonicalizeDump(raw []byte) (Fingerprint, []byte, *coredump.Dump, error) {
	return CanonicalizeDumpFor(raw, 0)
}

// CanonicalizeDumpFor is CanonicalizeDump for a program whose memory is
// memSize words; see coredump.UnmarshalFor. memSize 0 accepts any size.
func CanonicalizeDumpFor(raw []byte, memSize uint32) (Fingerprint, []byte, *coredump.Dump, error) {
	d, err := coredump.UnmarshalFor(raw, memSize)
	if err != nil {
		return Fingerprint{}, nil, nil, err
	}
	fp, canon, err := DumpFingerprint(d)
	if err != nil {
		return Fingerprint{}, nil, nil, err
	}
	return fp, canon, d, nil
}

// ProgramFingerprint hashes a program's semantic content: the instruction
// stream in its versioned binary encoding, the globals table, and the
// memory layout. Assembling the same source twice — or two sources that
// differ only in comments and label names resolved to the same image —
// yields the same fingerprint.
func ProgramFingerprint(p *prog.Program) (Fingerprint, error) {
	stream, err := isa.MarshalStream(p.Code)
	if err != nil {
		return Fingerprint{}, err
	}
	h := sha256.New()
	h.Write(stream)
	writeU32 := func(v uint32) {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	writeI64 := func(v int64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	writeU32(uint32(len(p.Globals)))
	for _, g := range p.Globals {
		io.WriteString(h, g.Name)
		h.Write([]byte{0})
		writeU32(g.Addr)
		writeU32(g.Size)
		writeU32(uint32(len(g.Init)))
		for _, v := range g.Init {
			writeI64(v)
		}
	}
	writeU32(p.Layout.MemSize)
	writeU32(p.Layout.GlobalBase)
	writeU32(p.Layout.HeapBase)
	writeU32(p.Layout.StackSize)
	writeU32(uint32(p.Layout.MaxThreads))
	var f Fingerprint
	h.Sum(f[:0])
	return f, nil
}

// OptionsFingerprint hashes a canonical, human-readable description of an
// analysis configuration. Callers must render every result-affecting knob
// into desc in a fixed order (see service.AnalysisConfig.Canonical);
// changing the configuration changes the fingerprint and so misses the
// cache rather than serving a result computed under different options.
func OptionsFingerprint(desc string) Fingerprint {
	return sha256.Sum256([]byte("res-options\x00" + desc))
}

// Key addresses one stored artifact. Space partitions the keyspace
// ("result" for analysis reports, "dump" for coredump blobs); unused
// fingerprint components are zero (a dump blob is addressed by content
// alone, so only Dump is set). Its JSON form, an object of the space and
// the three fingerprints in hex, is the one the key index, the service
// journal and the cluster's replication traffic all write.
type Key struct {
	Space   string      `json:"space"`
	Program Fingerprint `json:"program"`
	Dump    Fingerprint `json:"dump"`
	Options Fingerprint `json:"options"`
}

// ResultKey addresses the analysis report for one (program, dump,
// options) tuple.
func ResultKey(program, dump, options Fingerprint) Key {
	return Key{Space: "result", Program: program, Dump: dump, Options: options}
}

// DumpKey addresses a stored coredump blob by content.
func DumpKey(dump Fingerprint) Key {
	return Key{Space: "dump", Dump: dump}
}

// ID renders the key as a stable hex identifier (the hash of its
// components). It is safe to use as a filename and doubles as the
// service's public result ID.
func (k Key) ID() string {
	h := sha256.New()
	io.WriteString(h, k.Space)
	h.Write([]byte{0})
	h.Write(k.Program[:])
	h.Write(k.Dump[:])
	h.Write(k.Options[:])
	return hex.EncodeToString(h.Sum(nil))
}
