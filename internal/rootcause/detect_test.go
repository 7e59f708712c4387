package rootcause

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// findRacesRef and findAtomicityViolationRef are the detectors as they
// were before they were restricted to shared addresses: every pair of
// accesses to an address, every triple in the recording. They are the
// reference the detectors must match cause for cause.
func findRacesRef(recs []accessRec) []*Cause {
	byAddr := make(map[uint32][]accessRec)
	for _, r := range recs {
		byAddr[r.addr] = append(byAddr[r.addr], r)
	}
	addrs := make([]uint32, 0, len(byAddr))
	for a := range byAddr {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	var out []*Cause
	seen := make(map[string]bool)
	for _, a := range addrs {
		rs := byAddr[a]
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				x, y := rs[i], rs[j]
				if x.tid == y.tid || (!x.write && !y.write) {
					continue
				}
				if commonLock(x.locks, y.locks) {
					continue
				}
				pcs := []int{x.pc, y.pc}
				sort.Ints(pcs)
				c := &Cause{Kind: DataRace, PCs: pcs, Addr: a,
					Detail: fmt.Sprintf("t%d and t%d access word %d unsynchronized", x.tid, y.tid, a)}
				if !seen[c.Key()] {
					seen[c.Key()] = true
					out = append(out, c)
				}
			}
		}
	}
	return out
}

func findAtomicityViolationRef(recs []accessRec) *Cause {
	for i := 0; i < len(recs); i++ {
		first := recs[i]
		for j := i + 1; j < len(recs); j++ {
			mid := recs[j]
			if mid.tid == first.tid || mid.addr != first.addr || !mid.write {
				continue
			}
			for k := j + 1; k < len(recs); k++ {
				last := recs[k]
				if last.tid != first.tid || last.addr != first.addr {
					continue
				}
				if commonLock(first.locks, mid.locks) && commonLock(last.locks, mid.locks) {
					continue
				}
				pcs := []int{first.pc, mid.pc, last.pc}
				sort.Ints(pcs)
				return &Cause{Kind: AtomicityViolation, PCs: pcs, Addr: first.addr,
					Detail: fmt.Sprintf("t%d's accesses at pc %d and %d split by t%d's write at pc %d",
						first.tid, first.pc, last.pc, mid.tid, mid.pc)}
			}
		}
	}
	return nil
}

// randomRecordings replays one seeded stream of accesses and lock events
// into two recordings: one with the locksets Analyze records (shared,
// nil when empty) and one with a fresh copy of the held set per access,
// as Analyze recorded them before.
func randomRecordings(rng *rand.Rand) (shared, copied []accessRec) {
	threads := 1 + rng.Intn(3)
	addrs := 1 + rng.Intn(5)
	locks := rng.Intn(3)
	heldNew := make(map[int]map[uint32]bool)
	heldOld := make(map[int]map[uint32]bool)
	for n := rng.Intn(60); n > 0; n-- {
		tid := rng.Intn(threads)
		if locks > 0 && rng.Intn(4) == 0 {
			l := uint32(100 + rng.Intn(locks))
			acquire := rng.Intn(2) == 0
			heldNew[tid] = withLock(heldNew[tid], l, acquire)
			if heldOld[tid] == nil {
				heldOld[tid] = make(map[uint32]bool)
			}
			if acquire {
				heldOld[tid][l] = true
			} else {
				delete(heldOld[tid], l)
			}
			continue
		}
		r := accessRec{tid: tid, pc: rng.Intn(20), addr: uint32(rng.Intn(addrs)), write: rng.Intn(3) == 0}
		ls := make(map[uint32]bool, len(heldOld[tid]))
		for a := range heldOld[tid] {
			ls[a] = true
		}
		r.locks = heldNew[tid]
		shared = append(shared, r)
		r.locks = ls
		copied = append(copied, r)
	}
	return shared, copied
}

func TestDetectorsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	races, atoms := 0, 0
	for i := 0; i < 3000; i++ {
		recs, ref := randomRecordings(rng)
		sh := sharedAccesses(recs)
		want := fmt.Sprint(findAtomicityViolationRef(ref))
		if got := fmt.Sprint(findAtomicityViolation(recs, sh)); got != want {
			t.Fatalf("log %d: atomicity %s, want %s", i, got, want)
		}
		if want != "<nil>" {
			atoms++
		}
		wantRaces := findRacesRef(ref)
		if got := fmt.Sprint(findRaces(recs, sh)); got != fmt.Sprint(wantRaces) {
			t.Fatalf("log %d: races %s, want %s", i, got, fmt.Sprint(wantRaces))
		}
		races += len(wantRaces)
	}
	if races == 0 || atoms == 0 {
		t.Fatalf("the logs produced %d races and %d atomicity violations", races, atoms)
	}
	t.Logf("%d races, %d atomicity violations", races, atoms)
}

func TestWithLockLeavesItsInput(t *testing.T) {
	a := withLock(nil, 1, true)
	b := withLock(a, 2, true)
	c := withLock(b, 1, false)
	if len(a) != 1 || len(b) != 2 || len(c) != 1 || !c[2] {
		t.Fatalf("a=%v b=%v c=%v", a, b, c)
	}
	if withLock(a, 1, false) != nil {
		t.Fatal("releasing the last lock should leave a nil set")
	}
}
