package vm

import (
	"testing"

	"res/internal/asm"
	"res/internal/coredump"
	"res/internal/isa"
	"res/internal/mem"
)

func TestNewFromStateResumes(t *testing.T) {
	src := `
.global g 1
func main:
    const r1, 5
    storeg r1, &g
    loadg r2, &g
    addi r3, r2, 1
    storeg r3, &g
    halt
`
	p := asm.MustAssemble(src)
	// Run the first block... the whole main is one block; instead build a
	// state by hand mid-computation: g = 5, pc at the loadg.
	img := mem.NewImage(p.Layout.MemSize)
	gaddr, _ := p.GlobalAddr("g")
	img.Store(gaddr, 5)
	th := Thread{ID: 0, PC: 2}
	th.Regs[1] = 5
	th.Regs[isa.SP] = int64(p.Layout.StackTop(0))
	v, err := NewFromState(p, Config{}, State{
		Mem:      img,
		Threads:  []Thread{th},
		HeapNext: p.Layout.HeapBase,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := v.Run()
	if err != nil || d != nil {
		t.Fatalf("resume run: %v %v", d, err)
	}
	if got := v.Mem.Load(gaddr); got != 6 {
		t.Errorf("g = %d, want 6", got)
	}
}

func TestNewFromStateValidation(t *testing.T) {
	p := asm.MustAssemble("func main:\n halt")
	if _, err := NewFromState(p, Config{}, State{}); err == nil {
		t.Error("nil memory accepted")
	}
	if _, err := NewFromState(p, Config{}, State{Mem: mem.NewImage(8)}); err == nil {
		t.Error("wrong-size memory accepted")
	}
	img := mem.NewImage(p.Layout.MemSize)
	if _, err := NewFromState(p, Config{}, State{Mem: img}); err == nil {
		t.Error("zero threads accepted")
	}
	// Non-dense thread ids rejected.
	if _, err := NewFromState(p, Config{}, State{
		Mem:     img,
		Threads: []Thread{{ID: 1}},
	}); err == nil {
		t.Error("sparse thread ids accepted")
	}
}

func TestNewFromStateLocksRestored(t *testing.T) {
	src := `
.global m 1
func main:
    const r1, &m
    unlock r1
    halt
`
	p := asm.MustAssemble(src)
	img := mem.NewImage(p.Layout.MemSize)
	maddr, _ := p.GlobalAddr("m")
	th := Thread{ID: 0, PC: 0}
	th.Regs[isa.SP] = int64(p.Layout.StackTop(0))
	v, err := NewFromState(p, Config{}, State{
		Mem:     img,
		Threads: []Thread{th},
		Locks:   map[uint32]int{maddr: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The restored lock table lets the unlock succeed.
	if d, err := v.Run(); err != nil || d != nil {
		t.Fatalf("unlock with restored lock: %v %v", d, err)
	}
}

func TestHooksObserveExecution(t *testing.T) {
	src := `
.global g 1
.global m 1
func main:
    const r1, &m
    lock r1
    loadg r2, &g
    addi r2, r2, 1
    storeg r2, &g
    unlock r1
    halt
`
	p := asm.MustAssemble(src)
	var accesses, locks, blocks int
	var lastWrite uint32
	v, _ := New(p, Config{Hooks: Hooks{
		OnAccess: func(tid, pc int, addr uint32, write bool) {
			accesses++
			if write {
				lastWrite = addr
			}
		},
		OnLock:       func(tid, pc int, addr uint32, acquire bool) { locks++ },
		OnBlockStart: func(tid, block int) { blocks++ },
	}})
	if d, err := v.Run(); err != nil || d != nil {
		t.Fatalf("run: %v %v", d, err)
	}
	gaddr, _ := p.GlobalAddr("g")
	if accesses != 2 || lastWrite != gaddr {
		t.Errorf("accesses=%d lastWrite=%d", accesses, lastWrite)
	}
	if locks != 2 {
		t.Errorf("lock events = %d, want 2", locks)
	}
	if blocks < 2 {
		t.Errorf("block events = %d", blocks)
	}
}

func TestLBRSkipConditional(t *testing.T) {
	src := `
func main:
    const r1, 2
loop:
    addi r1, r1, -1
    br r1, loop, done
done:
    jmp fin
fin:
    halt
`
	p := asm.MustAssemble(src)
	v, _ := New(p, Config{LBRSkipConditional: true})
	if d, _ := v.Run(); d != nil {
		t.Fatalf("fault: %v", d.Fault)
	}
	dump := v.capture(coredump.Fault{})
	// Only the unconditional jmp is recorded.
	if len(dump.LBR) != 1 {
		t.Fatalf("LBR = %+v, want only the jmp", dump.LBR)
	}
	if p.Code[dump.LBR[0].From].Op != isa.OpJmp {
		t.Errorf("recorded %v", p.Code[dump.LBR[0].From].Op)
	}
}
