// Package mem provides the flat word-addressed memory image shared by the
// concrete VM, coredumps, and the symbolic snapshot machinery.
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

// Clone returns a deep copy of the image.
func (m *Image) Clone() *Image {
	w := make([]Word, len(m.words))
	copy(w, m.words)
	return &Image{words: w}
}

// Words exposes the backing slice (read-only by convention); used by
// serialization and diffing.
func (m *Image) Words() []Word { return m.words }

// Diff returns the addresses at which m and other differ. Images of
// different sizes differ at every address past the shorter one.
func (m *Image) Diff(other *Image) []Addr {
	var out []Addr
	n := len(m.words)
	if len(other.words) < n {
		n = len(other.words)
	}
	for i := 0; i < n; i++ {
		if m.words[i] != other.words[i] {
			out = append(out, Addr(i))
		}
	}
	longer := len(m.words)
	if len(other.words) > longer {
		longer = len(other.words)
	}
	for i := n; i < longer; i++ {
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

// DecodeImage reads an image written by Encode. A failure sticks on d.
func DecodeImage(d *wire.Decoder) *Image {
	size := d.Count("image size", maxWords)
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
