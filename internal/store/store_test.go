package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"res/internal/asm"
	"res/internal/vm"
)

const testSrc = `
.global g 1
func main:
    const r0, 1
    storeg r0, &g
    loadg r1, &g
    addi r2, r1, -1
    assert r2
    halt
`

const testSrcRenamed = `
; Same image, different label names and comments.
.global g 1
func main:
    const r0, 1
    storeg r0, &g
    loadg r1, &g
    addi r2, r1, -1
    assert r2
    halt
`

func testDumpBytes(t *testing.T) []byte {
	t.Helper()
	p := asm.MustAssemble(testSrc)
	v, err := vm.New(p, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := v.Run()
	if err != nil || d == nil {
		t.Fatalf("want a failing run, got dump=%v err=%v", d, err)
	}
	b, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestProgramFingerprintDeterministic(t *testing.T) {
	a, err := ProgramFingerprint(asm.MustAssemble(testSrc))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProgramFingerprint(asm.MustAssemble(testSrc))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same source, different fingerprints: %s vs %s", a, b)
	}
	c, err := ProgramFingerprint(asm.MustAssemble(testSrcRenamed))
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Fatalf("comment-only source change moved the fingerprint: %s vs %s", a, c)
	}
	d, err := ProgramFingerprint(asm.MustAssemble(`
.global g 1
func main:
    const r0, 2
    storeg r0, &g
    loadg r1, &g
    addi r2, r1, -2
    assert r2
    halt
`))
	if err != nil {
		t.Fatal(err)
	}
	if a == d {
		t.Fatal("different programs share a fingerprint")
	}
}

func TestDumpCanonicalization(t *testing.T) {
	raw := testDumpBytes(t)
	fp1, canon1, _, err := CanonicalizeDump(raw)
	if err != nil {
		t.Fatal(err)
	}
	fp2, canon2, _, err := CanonicalizeDump(canon1)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 || !bytes.Equal(canon1, canon2) {
		t.Fatal("canonicalization is not idempotent")
	}
	if _, _, _, err := CanonicalizeDump([]byte("not a dump")); err == nil {
		t.Fatal("garbage bytes canonicalized without error")
	}
}

func TestKeyIDStableAndDistinct(t *testing.T) {
	p := BytesFingerprint([]byte("prog"))
	d := BytesFingerprint([]byte("dump"))
	o := OptionsFingerprint("depth=8")
	k := ResultKey(p, d, o)
	if k.ID() != ResultKey(p, d, o).ID() {
		t.Fatal("key ID is not stable")
	}
	if k.ID() == ResultKey(p, d, OptionsFingerprint("depth=9")).ID() {
		t.Fatal("option change did not move the key")
	}
	if k.ID() == DumpKey(d).ID() {
		t.Fatal("spaces collide")
	}
	if _, err := ParseFingerprint(p.String()); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"zz", p.String()[:62], p.String() + "00", strings.Repeat("g", 64)} {
		if _, err := ParseFingerprint(bad); err == nil {
			t.Fatalf("bad fingerprint %q parsed", bad)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(2)
	k := func(i int) Key { return DumpKey(BytesFingerprint([]byte{byte(i)})) }
	s.Put(k(1), []byte("one"))
	s.Put(k(2), []byte("two"))
	s.Get(k(1)) // 1 is now most recent
	s.Put(k(3), []byte("three"))
	if _, ok := s.Get(k(2)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := s.Get(k(1)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want hits=2 misses=1", st)
	}
	if got := st.HitRate(); got != 2.0/3.0 {
		t.Fatalf("hit rate = %v, want 2/3", got)
	}
}

func TestDiskTierSurvivesEvictionAndRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := NewDisk(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	k1 := DumpKey(BytesFingerprint([]byte("a")))
	k2 := DumpKey(BytesFingerprint([]byte("b")))
	s.Put(k1, []byte("alpha"))
	s.Put(k2, []byte("beta")) // evicts k1 from memory, disk keeps it
	got, ok := s.Get(k1)
	if !ok || string(got) != "alpha" {
		t.Fatalf("disk tier miss: %q %v", got, ok)
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", st)
	}

	// A fresh store over the same directory (a restarted daemon) serves
	// everything the old one persisted.
	s2, err := NewDisk(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Key{k1, k2} {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("restart lost key %s", k.ID())
		}
	}
}

func TestGetByID(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := NewDisk(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	k1 := DumpKey(BytesFingerprint([]byte("a")))
	k2 := DumpKey(BytesFingerprint([]byte("b")))
	s.Put(k1, []byte("alpha"))
	// Memory-tier index answers by ID.
	if got, ok := s.GetByID(k1.ID()); !ok || string(got) != "alpha" {
		t.Fatalf("GetByID from memory = %q, %v", got, ok)
	}
	s.Put(k2, []byte("beta")) // evicts k1 from memory
	// Disk tier answers by ID (the filename is the ID).
	if got, ok := s.GetByID(k1.ID()); !ok || string(got) != "alpha" {
		t.Fatalf("GetByID from disk = %q, %v", got, ok)
	}
	if _, ok := s.GetByID("feedfacefeedface"); ok {
		t.Fatal("unknown ID answered")
	}
	// Memory-only store: the evicted ID is gone.
	m := New(1)
	m.Put(k1, []byte("alpha"))
	m.Put(k2, []byte("beta"))
	if _, ok := m.GetByID(k1.ID()); ok {
		t.Fatal("evicted ID still answered from a memory-only store")
	}
	if got, ok := m.GetByID(k2.ID()); !ok || string(got) != "beta" {
		t.Fatalf("live ID = %q, %v", got, ok)
	}
}

func TestReplicationHooks(t *testing.T) {
	s := New(8)
	var putKeys []Key
	backing := map[Key][]byte{}
	s.SetReplication(
		func(k Key, data []byte) { putKeys = append(putKeys, k) },
		func(k Key) ([]byte, bool) { d, ok := backing[k]; return d, ok },
	)
	k1 := DumpKey(BytesFingerprint([]byte("a")))
	k2 := DumpKey(BytesFingerprint([]byte("b")))
	k3 := DumpKey(BytesFingerprint([]byte("c")))

	// Put write-through fires; PutLocal stays local.
	s.Put(k1, []byte("alpha"))
	s.PutLocal(k2, []byte("beta"))
	if len(putKeys) != 1 || putKeys[0] != k1 {
		t.Fatalf("write-through saw %v, want just %s", putKeys, k1.ID())
	}

	// A local miss falls through to the fetch and repopulates the store.
	backing[k3] = []byte("gamma")
	if got, ok := s.Get(k3); !ok || string(got) != "gamma" {
		t.Fatalf("read-through = %q, %v", got, ok)
	}
	if st := s.Stats(); st.ReplicaHits != 1 {
		t.Fatalf("stats = %+v, want 1 replica hit", st)
	}
	delete(backing, k3)
	if got, ok := s.Get(k3); !ok || string(got) != "gamma" {
		t.Fatalf("repopulated entry = %q, %v; want a local hit", got, ok)
	}

	// GetLocal never consults the fetch.
	k4 := DumpKey(BytesFingerprint([]byte("d")))
	backing[k4] = []byte("delta")
	if _, ok := s.GetLocal(k4); ok {
		t.Fatal("GetLocal consulted the replication fetch")
	}
}

func TestStoreConcurrency(t *testing.T) {
	s := New(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := DumpKey(BytesFingerprint([]byte(fmt.Sprintf("%d", i%50))))
				if i%2 == 0 {
					s.Put(k, []byte{byte(i)})
				} else {
					s.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Entries > 32 {
		t.Fatalf("capacity bound violated: %d entries", st.Entries)
	}
}
