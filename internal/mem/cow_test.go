package mem

import (
	"slices"
	"sync"
	"testing"
)

// baseImage is a size-word image with a word set in every page, standing
// in for a decoded dump.
func baseImage(size uint32) *Image {
	m := NewImage(size)
	for a := Addr(0); a < size; a += pageWords {
		m.Store(a, Word(a)+1)
	}
	return m
}

func TestViewWriteLeavesBase(t *testing.T) {
	base := baseImage(1000)
	want := base.Clone()
	v := base.View()
	v.Store(0, -1)
	v.Store(5, 7)
	v.Store(999, 9)
	if d := base.Diff(want); len(d) != 0 {
		t.Fatalf("a write through a view changed the base at %v", d)
	}
	if v.Load(0) != -1 || v.Load(5) != 7 || v.Load(999) != 9 || v.Load(256) != 257 {
		t.Errorf("view reads %d, %d, %d, %d", v.Load(0), v.Load(5), v.Load(999), v.Load(256))
	}
}

func TestCloneSidesAreIndependent(t *testing.T) {
	// An owned page, a shared page (the view's unwritten pages) and the
	// zero page, written from either side after the clone.
	base := baseImage(1000)
	m := base.View()
	m.Store(1, 11)
	m.Store(700, 55)
	c := m.Clone()
	c.Store(1, 22)
	c.Store(701, 66)
	c.Store(300, 33)
	m.Store(600, 44)
	if m.Load(1) != 11 || m.Load(300) != 0 || m.Load(701) != 0 || c.Load(1) != 22 || c.Load(600) != 0 {
		t.Errorf("a write reached the other side: m %d %d %d, clone %d %d", m.Load(1), m.Load(300), m.Load(701), c.Load(1), c.Load(600))
	}
	if c.Load(700) != 55 || c.Load(701) != 66 || m.Load(700) != 55 {
		t.Errorf("clone's copied pages read %d, %d", c.Load(700), c.Load(701))
	}
	if base.Load(300) != 0 || base.Load(600) != 0 || base.Load(1) != 0 {
		t.Error("a write reached the base")
	}
}

func TestZeroPageIsNeverWritten(t *testing.T) {
	m := NewImage(1 << 12)
	m.Store(100, 1)
	m.Clone().Store(3000, 2)
	m.View().Store(200, 3)
	fresh := NewImage(1 << 12)
	for _, a := range []Addr{100, 200, 3000} {
		if w := fresh.Load(a); w != 0 {
			t.Errorf("fresh image reads %d at %d", w, a)
		}
	}
	if zeroPage != (page{}) {
		t.Error("the zero page was written")
	}
}

func TestDiffOfView(t *testing.T) {
	for _, size := range []uint32{8, 257, 1000, 1 << 16} {
		base := baseImage(size)
		v := base.View()
		if d := v.Diff(base); len(d) != 0 {
			t.Fatalf("size %d: a fresh view differs from its base at %v", size, d)
		}
		want := []Addr{0, size / 2, size - 1}
		for _, a := range want {
			v.Store(a, -5)
		}
		if got := v.Diff(base); !slices.Equal(got, want) {
			t.Errorf("size %d: view differs from its base at %v, want %v", size, got, want)
		}
		if got := base.Diff(v); !slices.Equal(got, want) {
			t.Errorf("size %d: base differs from its view at %v, want %v", size, got, want)
		}
		if got, ref := v.Diff(base), diffWords(v, base); !slices.Equal(got, ref) {
			t.Errorf("size %d: Diff = %v, word loop = %v", size, got, ref)
		}
	}
}

// TestViewsConcurrent builds views over one base from several goroutines
// and writes to them: reading a shared base needs no lock. Run it with
// -race.
func TestViewsConcurrent(t *testing.T) {
	base := baseImage(1 << 12)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := base.View()
				a := Addr(g*977+i*131) % v.Size()
				v.Store(a, Word(g+1))
				c := v.Clone()
				c.Store(a, 0)
				if v.Load(a) != Word(g+1) || len(c.Diff(base)) > 1 {
					t.Errorf("goroutine %d: view or clone reads wrong", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if d := base.Diff(baseImage(1 << 12)); len(d) != 0 {
		t.Errorf("the base changed at %v", d)
	}
}
