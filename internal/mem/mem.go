// Package mem provides the word-addressed memory image shared by the
// concrete VM, coredumps, and the symbolic snapshot machinery, and the
// sparse form (the nonzero words) that checkpoints hold.
//
// An Image is a table of pages of pageWords words. A page is either owned
// by the image, which writes it in place, or shared read-only with other
// images: Store copies a shared page before its first write (copy on
// write), and every page nothing has written is one package-level zero
// page. An image built from another — a View of it, or a Clone — thus
// costs its page table plus the pages it writes, and Diff, Encode and
// SparseOf skip shared and zero pages without reading them.
//
// The sharing contract: the base of a View must not change while the
// view, or any Clone of it, is in use. The bases are a decoded dump's
// image and the zero page, and nothing writes either after it is built.
// Past the code that builds an image (vm.New setting globals,
// DecodeImage, Sparse.Image, ConcretizeMem storing a suffix's words into
// its view), the only writers are the VM on its own image and hwerr on a
// Clone of a dump.
package mem

import (
	"math/bits"
	"slices"

	"res/internal/wire"
)

// Word is the machine word: 64-bit signed.
type Word = int64

// Addr is a word address.
type Addr = uint32

// pageWords is the number of words in a page: the unit an image shares,
// copies on write, and compares as one array.
const (
	pageShift = 8
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

type page = [pageWords]Word

// zeroPage is every page no image has written. Store never writes it: a
// page an image does not own is copied first.
var zeroPage page

const errOutOfRange = "mem: address out of range"

// Image is a memory of 64-bit words, held as a table of pages. The last
// page may reach past the image's size; its words there stay zero.
type Image struct {
	size  uint32
	pages []*page
	owned []uint64 // bit i set: pages[i] is this image's alone
}

// NewImage returns an all-zero image of size words. It allocates only the
// page table: every page is the shared zero page until written.
func NewImage(size uint32) *Image {
	n := (int(size) + pageWords - 1) >> pageShift
	pages := make([]*page, n)
	for i := range pages {
		pages[i] = &zeroPage
	}
	return &Image{size: size, pages: pages, owned: make([]uint64, (n+63)/64)}
}

// View returns an image that reads as m and owns none of its pages; its
// first write to a page copies that page. m must not change while the
// view is in use.
func (m *Image) View() *Image {
	return &Image{size: m.size, pages: slices.Clone(m.pages), owned: make([]uint64, len(m.owned))}
}

// Size returns the number of words in the image.
func (m *Image) Size() uint32 { return m.size }

// InRange reports whether addr is a valid address.
func (m *Image) InRange(addr Addr) bool { return addr < m.size }

// Load returns the word at addr. It panics on out-of-range access; callers
// (the VM) are expected to bounds-check and fault gracefully first.
func (m *Image) Load(addr Addr) Word {
	if addr >= m.size {
		panic(errOutOfRange)
	}
	return m.pages[addr>>pageShift][addr&pageMask]
}

// Store writes the word at addr, first copying its page if the image
// does not own it. It panics on out-of-range access.
func (m *Image) Store(addr Addr, v Word) {
	if addr >= m.size {
		panic(errOutOfRange)
	}
	i := int(addr >> pageShift)
	if !m.owns(i) {
		m.own(i)
	}
	m.pages[i][addr&pageMask] = v
}

func (m *Image) owns(i int) bool { return m.owned[i/64]&(1<<(i%64)) != 0 }

// own replaces page i with a copy the image owns.
func (m *Image) own(i int) {
	p := new(page)
	if m.pages[i] != &zeroPage {
		*p = *m.pages[i]
	}
	m.pages[i] = p
	m.owned[i/64] |= 1 << (i % 64)
}

// Clone returns an independent copy of the image: it copies the pages m
// owns, into one allocation, and shares the rest, which nothing writes.
func (m *Image) Clone() *Image {
	c := &Image{size: m.size, pages: slices.Clone(m.pages), owned: slices.Clone(m.owned)}
	n := 0
	for _, w := range m.owned {
		n += bits.OnesCount64(w)
	}
	copies := make([]page, n)
	for i, p := range c.pages {
		if m.owns(i) {
			copies[0] = *p
			c.pages[i] = &copies[0]
			copies = copies[1:]
		}
	}
	return c
}

// Diff returns the addresses at which m and other differ. Images of
// different sizes differ at every address past the shorter one. Pages
// the two images share are equal without a look; the rest compare as
// whole arrays before any word-by-word scan.
func (m *Image) Diff(other *Image) []Addr {
	var out []Addr
	n := int(min(m.size, other.size))
	for i := 0; i < n; i += pageWords {
		a, b := m.pages[i>>pageShift], other.pages[i>>pageShift]
		if a == b || (i+pageWords <= n && *a == *b) {
			continue
		}
		for j := i; j < min(i+pageWords, n); j++ {
			if a[j&pageMask] != b[j&pageMask] {
				out = append(out, Addr(j))
			}
		}
	}
	for i := n; i < int(max(m.size, other.size)); i++ {
		out = append(out, Addr(i))
	}
	return out
}

// runEnd returns the end of the run of zero words (zero) or nonzero
// words (!zero) that starts at i. It steps over a zero page whole.
func (m *Image) runEnd(i int, zero bool) int {
	n := int(m.size)
	for i < n {
		p := m.pages[i>>pageShift]
		if p == &zeroPage {
			if !zero {
				return i
			}
			i = (i>>pageShift + 1) << pageShift
			continue
		}
		if (p[i&pageMask] == 0) != zero {
			return i
		}
		i++
	}
	return n
}

// Encode appends the image's run-length form, since images are typically
// sparse: the size in words, then runs, each a tag (0 for zero words, 1
// for literal words), a length, and for a literal run its words.
func (m *Image) Encode(e *wire.Encoder) {
	e.Uvarint(uint64(m.size))
	for i := 0; i < int(m.size); {
		zero := m.pages[i>>pageShift][i&pageMask] == 0
		j := m.runEnd(i, zero)
		if zero {
			e.Uvarint(0)
			e.Uvarint(uint64(j - i))
		} else {
			e.Uvarint(1)
			e.Uvarint(uint64(j - i))
			for k := i; k < j; k++ {
				e.Uvarint(uint64(m.pages[k>>pageShift][k&pageMask]))
			}
		}
		i = j
	}
}

// maxWords bounds a decoded image (decode hardening).
const maxWords = 1 << 28

// DecodeImage reads an image written by Encode. want, when nonzero, is
// the only size accepted: any other claimed size fails before the image
// is allocated, so a few bytes cannot ask for a 2 GiB image. Only pages
// that receive a nonzero word are allocated. A failure sticks on d.
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
			for end := i + int(n); i < end && d.Err() == nil; i++ {
				if w := Word(d.Uvarint()); w != 0 {
					img.Store(Addr(i), w)
				}
			}
		default:
			d.Fail("bad image run tag %d", tag)
		}
	}
	return img
}
