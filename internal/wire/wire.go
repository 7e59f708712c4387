// Package wire is the binary codec behind every canonical byte format in
// the repository: RESDUMP1 dumps, RESDATT1 attachment containers,
// RESEVID1 evidence, RESCKPT1 checkpoint rings, RESPATCH1 patches,
// RESMINR1 repros and the RESISA01 instruction stream. The rules are
// shared: a stream opens with its magic; numbers are varints in their
// minimal form (zigzag for signed values); every count and length is
// bounded by a maximum the format chooses; and no bytes may trail the last
// field. Those bytes are content addresses, so a format's fingerprint is
// the hex SHA-256 of its canonical encoding.
package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// Encoder appends fields to a byte slice. The zero value is an encoder
// with no magic, as nested payloads use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder whose output starts with magic.
func NewEncoder(magic string) *Encoder {
	return &Encoder{buf: []byte(magic)}
}

// Bytes returns the bytes encoded so far.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uvarint appends v as an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends v as a zigzag varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Blob appends b prefixed by its length.
func (e *Encoder) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Str appends s prefixed by its length.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Raw appends b as is, for fixed-size fields the format sizes itself.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

var (
	errBadMagic   = errors.New("bad magic")
	errOverflow   = errors.New("varint overflows 64 bits")
	errNonMinimal = errors.New("varint not minimally encoded")
)

// Decoder reads fields from a byte slice. The first failure sticks: every
// later read returns a zero value, and Err and Finish report that first
// failure.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder positioned after magic. It has already
// failed when b does not start with magic.
func NewDecoder(b []byte, magic string) *Decoder {
	if len(b) < len(magic) || string(b[:len(magic)]) != magic {
		return &Decoder{err: errBadMagic}
	}
	return &Decoder{buf: b[len(magic):]}
}

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records a format-specific failure unless one is already recorded.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Finish returns the first failure, or an error when bytes remain unread.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	return d.err
}

// Uvarint reads an unsigned varint. It fails on truncation, on overflow,
// and on an overlong encoding (a final byte of zero after the first),
// since two byte strings must never decode to the same value.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	switch {
	case n == 0:
		d.err = io.ErrUnexpectedEOF
		return 0
	case n < 0:
		d.err = errOverflow
		return 0
	case n > 1 && d.buf[n-1] == 0:
		d.err = errNonMinimal
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a zigzag varint under the same rules as Uvarint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Count reads an unsigned varint that counts or sizes something, failing
// when it exceeds limit. What names the number in the error.
func (d *Decoder) Count(what string, limit int) int {
	n := d.Uvarint()
	if n > uint64(limit) {
		d.Fail("unreasonable %s %d (limit %d)", what, n, limit)
		return 0
	}
	return int(n)
}

// Raw reads the next n bytes. The result aliases the input.
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.buf) {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// Blob reads a length-prefixed byte string of at most limit bytes into a
// fresh slice; an empty one reads as nil. What names the length in the
// error.
func (d *Decoder) Blob(what string, limit int) []byte {
	b := d.Raw(d.Count(what, limit))
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Str reads a length-prefixed string of at most limit bytes. What names
// the length in the error.
func (d *Decoder) Str(what string, limit int) string {
	return string(d.Raw(d.Count(what, limit)))
}

// Fingerprint is the content address of canonical bytes: their hex
// SHA-256.
func Fingerprint(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
