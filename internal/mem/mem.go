// Package mem provides the flat word-addressed memory image shared by the
// concrete VM, coredumps, and the symbolic snapshot machinery, and the
// sparse form (the words set over a base) that checkpoints and
// synthesized pre-states hold.
package mem

import "res/internal/wire"

// Word is the machine word: 64-bit signed.
type Word = int64

// Addr is a word address.
type Addr = uint32

// Image is a flat memory of 64-bit words.
type Image struct {
	words []Word
}

// NewImage allocates a zeroed image of size words.
func NewImage(size uint32) *Image {
	return &Image{words: make([]Word, size)}
}

// Size returns the number of words in the image.
func (m *Image) Size() uint32 { return uint32(len(m.words)) }

// InRange reports whether addr is a valid address.
func (m *Image) InRange(addr Addr) bool { return int(addr) < len(m.words) }

// Load returns the word at addr. It panics on out-of-range access; callers
// (the VM) are expected to bounds-check and fault gracefully first.
func (m *Image) Load(addr Addr) Word { return m.words[addr] }

// Store writes the word at addr.
func (m *Image) Store(addr Addr, v Word) { m.words[addr] = v }

// Clone returns a deep copy of the image. It copies with append, which
// does not zero the words it is about to overwrite.
func (m *Image) Clone() *Image {
	return &Image{words: append([]Word(nil), m.words...)}
}

// diffBlock is the number of words Diff compares as one array; equal
// blocks cost a single memory comparison.
const diffBlock = 256

// Diff returns the addresses at which m and other differ. Images of
// different sizes differ at every address past the shorter one.
func (m *Image) Diff(other *Image) []Addr {
	var out []Addr
	a, b := m.words, other.words
	n := min(len(a), len(b))
	for i := 0; i < n; i += diffBlock {
		if i+diffBlock <= n && *(*[diffBlock]Word)(a[i:]) == *(*[diffBlock]Word)(b[i:]) {
			continue
		}
		for j := i; j < min(i+diffBlock, n); j++ {
			if a[j] != b[j] {
				out = append(out, Addr(j))
			}
		}
	}
	for i := n; i < max(len(a), len(b)); i++ {
		out = append(out, Addr(i))
	}
	return out
}

// Encode appends the image's run-length form, since images are typically
// sparse: the size in words, then runs, each a tag (0 for zero words, 1
// for literal words), a length, and for a literal run its words.
func (m *Image) Encode(e *wire.Encoder) {
	e.Uvarint(uint64(len(m.words)))
	for i := 0; i < len(m.words); {
		zero := m.words[i] == 0
		j := i
		for j < len(m.words) && (m.words[j] == 0) == zero {
			j++
		}
		if zero {
			e.Uvarint(0)
			e.Uvarint(uint64(j - i))
		} else {
			e.Uvarint(1)
			e.Uvarint(uint64(j - i))
			for _, w := range m.words[i:j] {
				e.Uvarint(uint64(w))
			}
		}
		i = j
	}
}

// maxWords bounds a decoded image (decode hardening).
const maxWords = 1 << 28

// DecodeImage reads an image written by Encode. want, when nonzero, is
// the only size accepted: any other claimed size fails before the image
// is allocated, so a few bytes cannot ask for a 2 GiB image. A failure
// sticks on d.
func DecodeImage(d *wire.Decoder, want uint32) *Image {
	size := d.Count("image size", maxWords)
	if want != 0 && uint32(size) != want {
		d.Fail("image size %d words, want %d", size, want)
	}
	if d.Err() != nil {
		return nil
	}
	img := NewImage(uint32(size))
	for i := 0; i < size && d.Err() == nil; {
		tag := d.Uvarint()
		n := d.Uvarint()
		if d.Err() != nil {
			break
		}
		if n == 0 || n > uint64(size-i) {
			d.Fail("bad image run length %d at word %d", n, i)
			break
		}
		switch tag {
		case 0:
			i += int(n)
		case 1:
			for end := i + int(n); i < end; i++ {
				img.words[i] = Word(d.Uvarint())
			}
		default:
			d.Fail("bad image run tag %d", tag)
		}
	}
	return img
}
