package checkpoint

import (
	"fmt"

	"res/internal/coredump"
	"res/internal/isa"
	"res/internal/mem"
	"res/internal/vm"
	"res/internal/wire"
)

// Wire form: "RESCKPT1" magic, then the ring in a canonical varint
// encoding — checkpoints sorted by strictly increasing step, locks by
// address, memory as sorted nonzero (addr, value) pairs against a shared
// image size. The canonical form is a decode∘encode fixed point: any
// bytes that decode re-encode to themselves, so the content fingerprint
// is well-defined on the wire bytes.
const wireMagic = "RESCKPT1"

// Decode hardening bounds. Generous against real rings, tight against
// allocation bombs.
const (
	maxCheckpoints = 1 << 12
	maxThreads     = 1 << 10
	maxLocks       = 1 << 16
	maxHeap        = 1 << 16
	maxMemPairs    = 1 << 22
	maxSchedRecs   = 1 << 20
	maxInputRecs   = 1 << 20
	maxMemSize     = 1 << 28
)

// Encode renders the ring in canonical wire form. An empty ring encodes
// to nil.
func (r *Ring) Encode() []byte {
	if r.Empty() {
		return nil
	}
	e := wire.NewEncoder(wireMagic)
	e.Uvarint(r.Interval)
	memSize := uint64(0)
	if len(r.Checkpoints) > 0 {
		memSize = uint64(r.Checkpoints[0].Mem.Size())
	}
	e.Uvarint(memSize)
	e.Uvarint(uint64(len(r.Checkpoints)))
	for _, c := range r.Checkpoints {
		e.Uvarint(c.Step)
		e.Uvarint(uint64(len(c.Threads)))
		for _, t := range c.Threads {
			for reg := 0; reg < isa.NumRegs; reg++ {
				e.Varint(t.Regs[reg])
			}
			e.Uvarint(uint64(t.PC))
			e.Uvarint(uint64(t.State))
			e.Uvarint(uint64(t.WaitAddr))
		}
		addrs := make([]uint32, 0, len(c.Locks))
		for a := range c.Locks {
			addrs = append(addrs, a)
		}
		for i := 1; i < len(addrs); i++ {
			for j := i; j > 0 && addrs[j] < addrs[j-1]; j-- {
				addrs[j], addrs[j-1] = addrs[j-1], addrs[j]
			}
		}
		e.Uvarint(uint64(len(addrs)))
		for _, a := range addrs {
			e.Uvarint(uint64(a))
			e.Uvarint(uint64(c.Locks[a]))
		}
		e.Uvarint(uint64(len(c.Heap)))
		for _, h := range c.Heap {
			e.Uvarint(uint64(h.Base))
			e.Uvarint(uint64(h.Size))
			e.Varint(int64(h.AllocPC))
			e.Varint(int64(h.FreePC))
			freed := uint64(0)
			if h.Freed {
				freed = 1
			}
			e.Uvarint(freed)
		}
		e.Uvarint(uint64(c.HeapNext))
		e.Uvarint(uint64(c.Mem.Len()))
		for a, w := range c.Mem.All() {
			e.Uvarint(uint64(a))
			e.Varint(w)
		}
	}
	e.Uvarint(r.LogBase)
	e.Uvarint(uint64(len(r.Sched)))
	for _, s := range r.Sched {
		e.Varint(int64(s.Tid))
		e.Varint(int64(s.Block))
	}
	e.Uvarint(uint64(len(r.Inputs)))
	for _, in := range r.Inputs {
		e.Uvarint(in.Step)
		e.Varint(in.Channel)
		e.Varint(in.Value)
	}
	return e.Bytes()
}

// Decode parses wire-form checkpoint bytes. Empty input decodes to a nil
// ring (no checkpoints recorded).
func Decode(b []byte) (*Ring, error) {
	if len(b) == 0 {
		return nil, nil
	}
	d := wire.NewDecoder(b, wireMagic)
	r := &Ring{Interval: d.Uvarint()}
	memSize := d.Count("memory size", maxMemSize)
	if r.Interval == 0 {
		d.Fail("zero interval")
	}
	nCks := d.Count("checkpoint count", maxCheckpoints)
	if nCks == 0 && memSize != 0 {
		d.Fail("memory size without checkpoints")
	}
	for i := 0; i < nCks && d.Err() == nil; i++ {
		c := &Checkpoint{Step: d.Uvarint(), Locks: map[uint32]int{}}
		nThreads := d.Count("thread count", maxThreads)
		if nThreads == 0 {
			d.Fail("checkpoint %d: no threads", i)
		}
		for id := 0; id < nThreads && d.Err() == nil; id++ {
			t := vm.Thread{ID: id}
			for reg := 0; reg < isa.NumRegs; reg++ {
				t.Regs[reg] = d.Varint()
			}
			t.PC = int(d.Uvarint())
			t.State = coredump.ThreadState(d.Uint("thread state", 8))
			t.WaitAddr = uint32(d.Uint("wait address", 32))
			c.Threads = append(c.Threads, t)
		}
		nLocks := d.Count("lock count", maxLocks)
		prevAddr := int64(-1)
		for j := 0; j < nLocks && d.Err() == nil; j++ {
			a := d.Uvarint()
			owner := d.Uvarint()
			if d.Err() != nil {
				break
			}
			if int64(a) <= prevAddr {
				d.Fail("checkpoint %d: locks not sorted", i)
				break
			}
			if a > uint64(^uint32(0)) || owner >= uint64(nThreads) {
				d.Fail("checkpoint %d: bad lock record", i)
				break
			}
			prevAddr = int64(a)
			c.Locks[uint32(a)] = int(owner)
		}
		nHeap := d.Count("heap count", maxHeap)
		for j := 0; j < nHeap && d.Err() == nil; j++ {
			c.Heap = append(c.Heap, coredump.HeapObject{
				Base:    uint32(d.Uint("heap base", 32)),
				Size:    uint32(d.Uint("heap size", 32)),
				AllocPC: int(d.Varint()),
				FreePC:  int(d.Varint()),
				Freed:   d.Uint("freed flag", 1) != 0,
			})
		}
		c.HeapNext = uint32(d.Uint("heap next", 32))
		nPairs := d.Count("memory pair count", min(maxMemPairs, memSize))
		if d.Err() == nil {
			c.Mem = mem.NewSparse(uint32(memSize))
			prev := -1
			for j := 0; j < nPairs && d.Err() == nil; j++ {
				a := d.Uvarint()
				v := d.Varint()
				if d.Err() != nil {
					break
				}
				if a >= uint64(memSize) || int(a) <= prev {
					d.Fail("checkpoint %d: memory pairs not sorted or out of range", i)
					break
				}
				if v == 0 {
					d.Fail("checkpoint %d: zero memory pair (not canonical)", i)
					break
				}
				prev = int(a)
				c.Mem.Set(uint32(a), v)
			}
		}
		r.Checkpoints = append(r.Checkpoints, c)
	}
	r.LogBase = d.Uvarint()
	nSched := d.Count("schedule length", maxSchedRecs)
	for i := 0; i < nSched && d.Err() == nil; i++ {
		tid := d.Varint()
		block := d.Varint()
		if d.Err() != nil {
			break
		}
		if tid < 0 || tid >= maxThreads || block < 0 {
			d.Fail("schedule record %d: bad tid/block", i)
			break
		}
		r.Sched = append(r.Sched, SchedRec{Tid: int(tid), Block: int(block)})
	}
	nInputs := d.Count("input count", maxInputRecs)
	for i := 0; i < nInputs && d.Err() == nil; i++ {
		r.Inputs = append(r.Inputs, InputRec{
			Step:    d.Uvarint(),
			Channel: d.Varint(),
			Value:   d.Varint(),
		})
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if r.Empty() {
		return nil, fmt.Errorf("checkpoint: empty ring encoded non-canonically")
	}
	if err := r.validate(uint32(memSize)); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return r, nil
}

// Fingerprint is the content identity of the ring: the hex SHA-256 of
// its canonical encoding, or "" for an empty ring. Decode accepts only
// canonical bytes, so this equals wire.Fingerprint of any bytes that
// decode to the ring; the service takes it that way, from the bytes it
// received, and folds it into the analysis cache key.
func (r *Ring) Fingerprint() string {
	b := r.Encode()
	if len(b) == 0 {
		return ""
	}
	return wire.Fingerprint(b)
}
