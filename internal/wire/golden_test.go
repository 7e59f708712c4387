package wire_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"res/internal/breadcrumb"
	"res/internal/checkpoint"
	"res/internal/coredump"
	"res/internal/evidence"
	"res/internal/fixverify"
	"res/internal/isa"
	"res/internal/mem"
	"res/internal/minimize"
	"res/internal/prog"
	"res/internal/store"
	"res/internal/vm"
)

// The golden inputs are fixed hand-written values, not VM runs, so the
// expected bytes change only when an encoder does. Every format's bytes
// are a content address (the store's dump and program keys, the evidence,
// checkpoint, patch and repro fingerprints folded into cache keys and
// journaled job IDs), so any diff here is a format break.

func goldenMem() *mem.Image {
	m := mem.NewImage(40)
	// A literal run at the start, zero runs between and after, and
	// negative words that take the full ten varint bytes.
	for a, v := range map[uint32]int64{0: 7, 1: -1, 2: 300, 20: 1 << 40, 21: -123456} {
		m.Store(a, v)
	}
	return m
}

func goldenDump() *coredump.Dump {
	return &coredump.Dump{
		Mem: goldenMem(),
		Threads: []coredump.Thread{
			{ID: 0, Regs: [isa.NumRegs]int64{0: 5, 3: -2, 15: 39}, PC: 6, State: coredump.ThreadRunnable},
			{ID: 1, Regs: [isa.NumRegs]int64{1: 1 << 33, 14: -70}, PC: 11, State: coredump.ThreadBlocked, WaitAddr: 21},
		},
		Locks: map[uint32]int{21: 0, 3: 1},
		Heap: []coredump.HeapObject{
			{Base: 24, Size: 4, AllocPC: 2, FreePC: -1},
			{Base: 29, Size: 2, Freed: true, AllocPC: 4, FreePC: 9},
		},
		Fault:   coredump.Fault{Kind: coredump.FaultAssert, Thread: 1, PC: 7, Addr: 33, Detail: "golden"},
		Outputs: []coredump.OutputRec{{PC: 3, Tag: 1, Value: -4}, {PC: 5, Tag: 2, Value: 1 << 20}},
		LBR:     []coredump.BranchRec{{From: 1, To: 4}, {From: 5, To: 0}, {From: 9, To: 11}},
		Steps:   300,
	}
}

func goldenEvidence() evidence.Set {
	return evidence.Set{
		evidence.LBR{Mode: breadcrumb.SkipConditional},
		evidence.OutputLog{},
		evidence.EventLog{Records: []evidence.EventRec{{Index: 1, Tid: 0, Block: 3}, {Index: 4, Tid: 1, Block: 200}}},
		evidence.BranchTrace{Bits: []bool{true, false, true, true, false, false, true, false, true, true, false}},
		evidence.MemProbe{Probes: []evidence.Probe{{Index: 2, Addr: 17, Value: -9}, {Index: 2, Addr: 18, Value: 300}}},
	}
}

func goldenRing() *checkpoint.Ring {
	m0 := mem.NewSparse(40)
	m0.Set(2, 300)
	m8 := mem.SparseOf(goldenMem())
	return &checkpoint.Ring{
		Interval: 8,
		Checkpoints: []*checkpoint.Checkpoint{
			{
				Step:     0,
				Mem:      m0,
				Threads:  []vm.Thread{{ID: 0, PC: 0}},
				Locks:    map[uint32]int{},
				HeapNext: 24,
			},
			{
				Step: 8,
				Mem:  m8,
				Threads: []vm.Thread{
					{ID: 0, Regs: [isa.NumRegs]int64{2: -3}, PC: 5, State: coredump.ThreadRunnable},
					{ID: 1, Regs: [isa.NumRegs]int64{0: 7}, PC: 12, State: coredump.ThreadBlocked, WaitAddr: 21},
				},
				Locks:    map[uint32]int{21: 0, 3: 1},
				Heap:     []coredump.HeapObject{{Base: 24, Size: 4, AllocPC: 2, FreePC: -1}},
				HeapNext: 29,
			},
		},
		LogBase: 8,
		Sched:   []checkpoint.SchedRec{{Tid: 0, Block: 2}, {Tid: 1, Block: 5}, {Tid: 1, Block: 6}, {Tid: 0, Block: 3}},
		Inputs:  []checkpoint.InputRec{{Step: 8, Channel: 0, Value: -1}, {Step: 10, Channel: 1, Value: 1 << 35}},
	}
}

func goldenPatch() *fixverify.Patch {
	return &fixverify.Patch{Ops: []fixverify.Op{
		{Kind: fixverify.OpReplace, Label: "step3", Lines: []string{"    lock r4", "    loadg r2, &cnt"}},
		{Kind: fixverify.OpInsert, Label: "main", Lines: []string{"    const r4, 3"}},
		{Kind: fixverify.OpDelete, Label: "dead"},
	}}
}

func goldenCode() []isa.Instr {
	return []isa.Instr{
		{Op: isa.OpConst, Rd: 1, Imm: -5},
		{Op: isa.OpLoadG, Rd: 2, Imm: 300},
		{Op: isa.OpBr, Rs1: 2, Target: 3, Target2: 4},
		{Op: isa.OpCall, Target: 5, Sym: "worker"},
		{Op: isa.OpHalt},
		{Op: isa.OpRet},
	}
}

func goldenProgram() *prog.Program {
	return &prog.Program{
		Code: goldenCode(),
		Globals: []prog.Global{
			{Name: "bad", Addr: 16, Size: 1},
			{Name: "buf", Addr: 17, Size: 4, Init: []int64{1, -2}},
		},
		Layout: prog.Layout{MemSize: 1 << 12, GlobalBase: 16, HeapBase: 64, StackSize: 128, MaxThreads: 4},
	}
}

func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenVectors pins every binary format to checked-in bytes: the
// encoder must reproduce them exactly, the decoder must accept them and
// re-encode them unchanged, and each content fingerprint must be the hex
// SHA-256 of those bytes.
func TestGoldenVectors(t *testing.T) {
	dumpBytes, err := goldenDump().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	programFP, err := store.ProgramFingerprint(goldenProgram())
	if err != nil {
		t.Fatal(err)
	}
	evBytes := goldenEvidence().Encode()
	ringBytes := goldenRing().Encode()
	repro := &minimize.MinimalRepro{
		CauseKey:    "data-race@12",
		ProgramFP:   programFP.String(),
		DumpFP:      hexSum(dumpBytes),
		Evidence:    evBytes,
		Checkpoints: ringBytes,
		MaxDepth:    14,
		MaxNodes:    3000,
		SuffixDepth: 9,
		OrigSources: 5,
		MinSources:  2,
		Runs:        31,
		Reductions:  4,
	}

	for _, tc := range []struct {
		file   string
		encode func() ([]byte, error)
		// reencode decodes the golden bytes and encodes the result; nil
		// for encode-only formats.
		reencode func([]byte) ([]byte, error)
		// fingerprint is the format's content address, when it has one.
		fingerprint func() string
	}{
		{
			file:   "dump.bin",
			encode: goldenDump().Marshal,
			reencode: func(b []byte) ([]byte, error) {
				d, err := coredump.Unmarshal(b)
				if err != nil {
					return nil, err
				}
				return d.Marshal()
			},
			fingerprint: func() string {
				fp, _, _, err := store.CanonicalizeDump(dumpBytes)
				if err != nil {
					return err.Error()
				}
				return fp.String()
			},
		},
		{
			file: "attached.bin",
			encode: func() ([]byte, error) {
				return coredump.EncodeAttached(dumpBytes, map[string][]byte{
					coredump.EvidenceAttachment:   evBytes,
					coredump.CheckpointAttachment: ringBytes,
				})
			},
			reencode: func(b []byte) ([]byte, error) {
				d, atts, err := coredump.DecodeAttached(b)
				if err != nil {
					return nil, err
				}
				return coredump.EncodeAttached(d, atts)
			},
		},
		{
			file:   "evidence.bin",
			encode: func() ([]byte, error) { return goldenEvidence().Encode(), nil },
			reencode: func(b []byte) ([]byte, error) {
				s, err := evidence.Decode(b)
				return s.Encode(), err
			},
			fingerprint: goldenEvidence().Fingerprint,
		},
		{
			file:   "checkpoints.bin",
			encode: func() ([]byte, error) { return goldenRing().Encode(), nil },
			reencode: func(b []byte) ([]byte, error) {
				r, err := checkpoint.Decode(b)
				if err != nil {
					return nil, err
				}
				return r.Encode(), nil
			},
			fingerprint: goldenRing().Fingerprint,
		},
		{
			file:   "patch.bin",
			encode: func() ([]byte, error) { return goldenPatch().Encode(), nil },
			reencode: func(b []byte) ([]byte, error) {
				p, err := fixverify.Decode(b)
				if err != nil {
					return nil, err
				}
				return p.Encode(), nil
			},
			fingerprint: goldenPatch().Fingerprint,
		},
		{
			file:   "repro.bin",
			encode: func() ([]byte, error) { return repro.Encode(), nil },
			reencode: func(b []byte) ([]byte, error) {
				m, err := minimize.Decode(b)
				if err != nil {
					return nil, err
				}
				return m.Encode(), nil
			},
			fingerprint: repro.Fingerprint,
		},
		{
			file:   "isa.bin",
			encode: func() ([]byte, error) { return isa.MarshalStream(goldenCode()) },
		},
		{
			file: "program.fp",
			encode: func() ([]byte, error) {
				fp, err := store.ProgramFingerprint(goldenProgram())
				return []byte(fp.String()), err
			},
		},
		{
			file: "dump.fp",
			encode: func() ([]byte, error) {
				fp, _, err := store.DumpFingerprint(goldenDump())
				return []byte(fp.String()), err
			},
		},
	} {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoding changed:\n got %x\nwant %x", got, want)
			}
			if tc.reencode != nil {
				again, err := tc.reencode(want)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, want) {
					t.Fatalf("decode∘encode is not the identity:\n got %x\nwant %x", again, want)
				}
			}
			if tc.fingerprint != nil {
				if fp := tc.fingerprint(); fp != hexSum(want) {
					t.Fatalf("fingerprint = %s, want the hex SHA-256 of the bytes, %s", fp, hexSum(want))
				}
			}
		})
	}
}
