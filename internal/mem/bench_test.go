package mem

import "testing"

var (
	cloneSink *Image
	diffSink  []Addr
)

// benchImage is a 2^16-word image, the default layout's size, with one
// word in 256 set.
func benchImage() *Image {
	m := NewImage(1 << 16)
	for a := uint32(0); a < m.Size(); a += 256 {
		m.Store(a, Word(a)+1)
	}
	return m
}

func BenchmarkImageClone(b *testing.B) {
	m := benchImage()
	b.SetBytes(int64(m.Size()) * 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cloneSink = m.Clone()
	}
}

// BenchmarkImageDiff compares two images that differ in one word: every
// block but one is equal.
func BenchmarkImageDiff(b *testing.B) {
	m := benchImage()
	other := m.Clone()
	other.Store(other.Size()/2, -1)
	b.SetBytes(int64(m.Size()) * 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		diffSink = m.Diff(other)
	}
}
