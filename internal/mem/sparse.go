package mem

import (
	"iter"
	"slices"
)

// Sparse is a memory image held as the words that differ from a base: a
// size, a base image (nil reads as all zeros), and the words set over the
// base in increasing address order. It is the form of an image that
// nothing writes — a checkpoint, a suffix's pre-state — and Image turns
// it into the flat form the VM writes to. The base is shared, not copied:
// it must not change while the sparse image is in use.
type Sparse struct {
	size  uint32
	base  *Image
	addrs []Addr
	vals  []Word
}

// NewSparse returns a sparse image of size words, all zero, with no
// words set.
func NewSparse(size uint32) *Sparse { return &Sparse{size: size} }

// Over returns a sparse image that reads as base until words are set
// over it.
func Over(base *Image) *Sparse { return &Sparse{size: base.Size(), base: base} }

// SparseOf returns the nonzero words of m over an all-zero base.
func SparseOf(m *Image) *Sparse {
	s := NewSparse(m.Size())
	for a, w := range m.words {
		if w != 0 {
			s.Set(Addr(a), w)
		}
	}
	return s
}

// Set sets the word at a to v. Words are set once each, in increasing
// address order, and in range; anything else is a caller bug.
func (s *Sparse) Set(a Addr, v Word) {
	if !s.InRange(a) || (len(s.addrs) > 0 && a <= s.addrs[len(s.addrs)-1]) {
		panic("mem: sparse word set out of order or out of range")
	}
	s.addrs = append(s.addrs, a)
	s.vals = append(s.vals, v)
}

// Size returns the number of words in the image.
func (s *Sparse) Size() uint32 { return s.size }

// InRange reports whether addr is a valid address.
func (s *Sparse) InRange(addr Addr) bool { return addr < s.size }

// Load returns the word at addr, which must be in range.
func (s *Sparse) Load(addr Addr) Word {
	if i, ok := slices.BinarySearch(s.addrs, addr); ok {
		return s.vals[i]
	}
	if s.base == nil {
		return 0
	}
	return s.base.Load(addr)
}

// Len returns the number of words set over the base.
func (s *Sparse) Len() int { return len(s.addrs) }

// All yields the words set over the base, in increasing address order.
func (s *Sparse) All() iter.Seq2[Addr, Word] {
	return func(yield func(Addr, Word) bool) {
		for i, a := range s.addrs {
			if !yield(a, s.vals[i]) {
				return
			}
		}
	}
}

// Image returns a fresh flat copy of the image.
func (s *Sparse) Image() *Image {
	var img *Image
	if s.base != nil {
		img = s.base.Clone()
	} else {
		img = NewImage(s.size)
	}
	for i, a := range s.addrs {
		img.words[a] = s.vals[i]
	}
	return img
}
