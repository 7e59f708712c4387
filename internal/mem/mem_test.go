package mem

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"res/internal/wire"
)

// roundTrip encodes m and decodes the result, requiring every byte to be
// consumed.
func roundTrip(m *Image) (*Image, error) {
	var e wire.Encoder
	m.Encode(&e)
	return decode(e.Bytes())
}

func decode(b []byte) (*Image, error) {
	d := wire.NewDecoder(b, "")
	img := DecodeImage(d, 0)
	return img, d.Finish()
}

func TestLoadStore(t *testing.T) {
	m := NewImage(64)
	if m.Size() != 64 {
		t.Fatalf("size = %d", m.Size())
	}
	m.Store(10, -7)
	if got := m.Load(10); got != -7 {
		t.Errorf("load = %d", got)
	}
	if !m.InRange(63) || m.InRange(64) {
		t.Error("InRange boundary wrong")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := NewImage(8)
	m.Store(1, 11)
	c := m.Clone()
	c.Store(1, 22)
	if m.Load(1) != 11 || c.Load(1) != 22 {
		t.Error("clone shares storage")
	}
}

func TestDiff(t *testing.T) {
	a := NewImage(8)
	b := NewImage(8)
	if d := a.Diff(b); len(d) != 0 {
		t.Errorf("identical images diff = %v", d)
	}
	b.Store(3, 1)
	b.Store(7, 2)
	if d := a.Diff(b); len(d) != 2 || d[0] != 3 || d[1] != 7 {
		t.Errorf("diff = %v", d)
	}
	// Size mismatch: trailing addresses differ.
	c := NewImage(10)
	if d := a.Diff(c); len(d) != 2 || d[0] != 8 || d[1] != 9 {
		t.Errorf("size-mismatch diff = %v", d)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		m := NewImage(uint32(rng.Intn(2000)))
		// Sparse writes, mimicking real images.
		for i := 0; i < rng.Intn(50); i++ {
			if m.Size() == 0 {
				break
			}
			m.Store(uint32(rng.Intn(int(m.Size()))), rng.Int63()-rng.Int63())
		}
		got, err := roundTrip(m)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if d := m.Diff(got); len(d) != 0 {
			t.Fatalf("trial %d: round trip differs at %v", trial, d)
		}
	}
}

func TestSerializationCompressesZeros(t *testing.T) {
	m := NewImage(1 << 16)
	m.Store(100, 1)
	var e wire.Encoder
	m.Encode(&e)
	if n := len(e.Bytes()); n > 64 {
		t.Errorf("sparse 64K-word image serialized to %d bytes", n)
	}
}

func TestReadImageRejectsGarbage(t *testing.T) {
	if _, err := decode([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Error("unreasonable size accepted")
	}
	if _, err := decode(nil); err == nil {
		t.Error("empty input accepted")
	}
	// Bad run length.
	if _, err := decode([]byte{4, 0, 200}); err == nil {
		t.Error("overlong run accepted")
	}
	// The size 4 as a two-byte varint.
	if _, err := decode([]byte{0x84, 0x00, 0, 4}); err == nil {
		t.Error("overlong varint accepted")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(words []int64) bool {
		if len(words) > 4096 {
			words = words[:4096]
		}
		m := NewImage(uint32(len(words)))
		for i, w := range words {
			m.Store(uint32(i), w)
		}
		got, err := roundTrip(m)
		if err != nil {
			return false
		}
		return len(m.Diff(got)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// diffWords is the word-by-word loop Diff replaced, kept as its
// reference.
func diffWords(m, other *Image) []Addr {
	var out []Addr
	n := min(m.Size(), other.Size())
	for a := Addr(0); a < n; a++ {
		if m.Load(a) != other.Load(a) {
			out = append(out, a)
		}
	}
	for a := n; a < max(m.Size(), other.Size()); a++ {
		out = append(out, a)
	}
	return out
}

func TestDiffMatchesWordLoop(t *testing.T) {
	sizes := []uint32{0, 1, 255, 256, 257, 1000, 1 << 16}
	for _, size := range sizes {
		a, b := NewImage(size), NewImage(size)
		for i := Addr(0); i < size; i++ {
			a.Store(i, Word(i))
			b.Store(i, Word(i))
		}
		// Differences at the first word, on both sides of the first and
		// the last page edge, and in the tail after the last full page.
		// Spots past the end (or wrapped below zero) are skipped.
		tail := size / pageWords * pageWords
		for _, spot := range []uint32{0, pageWords - 1, pageWords, tail - 1, tail, size - 1} {
			if spot >= size {
				continue
			}
			b.Store(spot, -1)
			got, want := a.Diff(b), diffWords(a, b)
			if !slices.Equal(got, want) || len(got) != 1 {
				t.Fatalf("size %d, difference at %d: Diff = %v, word loop = %v", size, spot, got, want)
			}
			b.Store(spot, Word(spot))
		}
		// Unequal lengths, with and without a difference in the shared
		// prefix.
		for _, other := range sizes {
			a, b := NewImage(size), NewImage(other)
			if size > 0 && other > 0 {
				b.Store(0, 9)
			}
			if got, want := a.Diff(b), diffWords(a, b); !slices.Equal(got, want) {
				t.Fatalf("sizes %d and %d: Diff = %v, word loop = %v", size, other, got, want)
			}
		}
	}
}

func TestLoadStorePanicOutOfRange(t *testing.T) {
	// 257 words: the second page exists, but only its first word is in
	// the image.
	m := NewImage(257)
	m.Store(256, 1)
	for name, f := range map[string]func(){
		"load":  func() { m.Load(257) },
		"store": func() { m.Store(300, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past the size did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSparse(t *testing.T) {
	m := NewImage(1000)
	m.Store(0, 5)
	m.Store(256, -3)
	m.Store(999, 1<<40)
	s := SparseOf(m)
	if s.Size() != 1000 || s.Len() != 3 || !s.InRange(999) || s.InRange(1000) {
		t.Fatalf("size %d, %d words set", s.Size(), s.Len())
	}
	if s.Load(256) != -3 || s.Load(999) != 1<<40 {
		t.Errorf("set words load as %d, %d", s.Load(256), s.Load(999))
	}
	if s.Load(1) != 0 || s.Load(998) != 0 {
		t.Error("unset word is not zero")
	}
	if d := s.Image().Diff(m); len(d) != 0 {
		t.Errorf("Image differs from the image SparseOf read at %v", d)
	}
	var addrs []Addr
	for a := range s.All() {
		addrs = append(addrs, a)
	}
	if !slices.Equal(addrs, []Addr{0, 256, 999}) {
		t.Errorf("All yields %v", addrs)
	}
}
