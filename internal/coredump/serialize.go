package coredump

import (
	"fmt"
	"sort"

	"res/internal/isa"
	"res/internal/mem"
	"res/internal/wire"
)

const dumpMagic = "RESDUMP1"

// Decode hardening bounds.
const (
	maxDetail  = 1 << 20
	maxThreads = 1 << 12
	maxLocks   = 1 << 24
	maxHeap    = 1 << 24
	maxOut     = 1 << 24
	maxLBR     = 1 << 16
)

// Marshal returns the dump's canonical bytes: locks in address order and
// the memory image in its positional run-length form. It never fails.
func (d *Dump) Marshal() ([]byte, error) {
	e := wire.NewEncoder(dumpMagic)

	e.Uvarint(uint64(d.Fault.Kind))
	e.Varint(int64(d.Fault.Thread))
	e.Varint(int64(d.Fault.PC))
	e.Uvarint(uint64(d.Fault.Addr))
	e.Str(d.Fault.Detail)
	e.Uvarint(d.Steps)

	e.Uvarint(uint64(len(d.Threads)))
	for _, t := range d.Threads {
		e.Varint(int64(t.ID))
		for _, r := range t.Regs {
			e.Varint(r)
		}
		e.Varint(int64(t.PC))
		e.Uvarint(uint64(t.State))
		e.Uvarint(uint64(t.WaitAddr))
	}

	addrs := make([]uint32, 0, len(d.Locks))
	for a := range d.Locks {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	e.Uvarint(uint64(len(addrs)))
	for _, a := range addrs {
		e.Uvarint(uint64(a))
		e.Varint(int64(d.Locks[a]))
	}

	e.Uvarint(uint64(len(d.Heap)))
	for _, h := range d.Heap {
		e.Uvarint(uint64(h.Base))
		e.Uvarint(uint64(h.Size))
		freed := uint64(0)
		if h.Freed {
			freed = 1
		}
		e.Uvarint(freed)
		e.Varint(int64(h.AllocPC))
		e.Varint(int64(h.FreePC))
	}

	e.Uvarint(uint64(len(d.Outputs)))
	for _, o := range d.Outputs {
		e.Varint(int64(o.PC))
		e.Varint(o.Tag)
		e.Varint(o.Value)
	}

	e.Uvarint(uint64(len(d.LBR)))
	for _, b := range d.LBR {
		e.Varint(int64(b.From))
		e.Varint(int64(b.To))
	}
	d.Mem.Encode(e)
	return e.Bytes(), nil
}

// Unmarshal parses a dump from the bytes Marshal writes, whatever its
// memory image size.
func Unmarshal(b []byte) (*Dump, error) { return UnmarshalFor(b, 0) }

// UnmarshalFor is Unmarshal for a program whose memory is memSize words:
// a dump claiming any other image size is rejected before its image is
// allocated. memSize 0 accepts any size.
func UnmarshalFor(b []byte, memSize uint32) (*Dump, error) {
	dec := wire.NewDecoder(b, dumpMagic)
	d := &Dump{Locks: make(map[uint32]int)}

	d.Fault.Kind = FaultKind(dec.Uint("fault kind", 8))
	d.Fault.Thread = int(dec.Varint())
	d.Fault.PC = int(dec.Varint())
	d.Fault.Addr = uint32(dec.Uint("fault address", 32))
	d.Fault.Detail = dec.Str("detail length", maxDetail)
	d.Steps = dec.Uvarint()

	nThreads := dec.Count("thread count", maxThreads)
	for i := 0; i < nThreads && dec.Err() == nil; i++ {
		var t Thread
		t.ID = int(dec.Varint())
		for r := 0; r < isa.NumRegs; r++ {
			t.Regs[r] = dec.Varint()
		}
		t.PC = int(dec.Varint())
		t.State = ThreadState(dec.Uint("thread state", 8))
		t.WaitAddr = uint32(dec.Uint("wait address", 32))
		d.Threads = append(d.Threads, t)
	}

	nLocks := dec.Count("lock count", maxLocks)
	for i := 0; i < nLocks && dec.Err() == nil; i++ {
		a := uint32(dec.Uint("lock address", 32))
		d.Locks[a] = int(dec.Varint())
	}

	nHeap := dec.Count("heap count", maxHeap)
	for i := 0; i < nHeap && dec.Err() == nil; i++ {
		var h HeapObject
		h.Base = uint32(dec.Uint("heap base", 32))
		h.Size = uint32(dec.Uint("heap size", 32))
		h.Freed = dec.Uint("freed flag", 1) == 1
		h.AllocPC = int(dec.Varint())
		h.FreePC = int(dec.Varint())
		d.Heap = append(d.Heap, h)
	}

	nOut := dec.Count("output count", maxOut)
	for i := 0; i < nOut && dec.Err() == nil; i++ {
		var o OutputRec
		o.PC = int(dec.Varint())
		o.Tag = dec.Varint()
		o.Value = dec.Varint()
		d.Outputs = append(d.Outputs, o)
	}

	nLBR := dec.Count("LBR count", maxLBR)
	for i := 0; i < nLBR && dec.Err() == nil; i++ {
		var b BranchRec
		b.From = int(dec.Varint())
		b.To = int(dec.Varint())
		d.LBR = append(d.LBR, b)
	}

	d.Mem = mem.DecodeImage(dec, memSize)
	if err := dec.Finish(); err != nil {
		return nil, fmt.Errorf("coredump: %w", err)
	}
	return d, nil
}
