package mem

import (
	"iter"
	"slices"
)

// Sparse is a memory image held as its nonzero words: a size and the
// words set over zeros, in increasing address order. It is the form a
// checkpoint keeps and RESCKPT1 carries, as address and value pairs. Its
// allocation follows the words set, not its size, so a ring that claims
// a huge image costs only the pairs it sends. Image turns it into the
// paged form the VM writes to.
type Sparse struct {
	size  uint32
	addrs []Addr
	vals  []Word
}

// NewSparse returns a sparse image of size words, all zero, with no
// words set.
func NewSparse(size uint32) *Sparse { return &Sparse{size: size} }

// SparseOf returns the nonzero words of m. It skips the zero page
// without reading it.
func SparseOf(m *Image) *Sparse {
	s := NewSparse(m.size)
	for i, p := range m.pages {
		if p == &zeroPage {
			continue
		}
		for j, w := range p {
			if w != 0 {
				s.Set(Addr(i<<pageShift+j), w)
			}
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

// Load returns the word at addr, which must be in range: the word set
// there, or zero.
func (s *Sparse) Load(addr Addr) Word {
	if i, ok := slices.BinarySearch(s.addrs, addr); ok {
		return s.vals[i]
	}
	return 0
}

// Len returns the number of words set.
func (s *Sparse) Len() int { return len(s.addrs) }

// All yields the words set, in increasing address order.
func (s *Sparse) All() iter.Seq2[Addr, Word] {
	return func(yield func(Addr, Word) bool) {
		for i, a := range s.addrs {
			if !yield(a, s.vals[i]) {
				return
			}
		}
	}
}

// Image returns a fresh paged copy of the image, which allocates only
// the pages that hold a set word.
func (s *Sparse) Image() *Image {
	img := NewImage(s.size)
	for i, a := range s.addrs {
		img.Store(a, s.vals[i])
	}
	return img
}
