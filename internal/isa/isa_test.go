package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"res/internal/wire"
)

func TestRegString(t *testing.T) {
	if got := Reg(0).String(); got != "r0" {
		t.Errorf("Reg(0) = %q, want r0", got)
	}
	if got := Reg(14).String(); got != "r14" {
		t.Errorf("Reg(14) = %q, want r14", got)
	}
	if got := SP.String(); got != "sp" {
		t.Errorf("SP = %q, want sp", got)
	}
}

func TestRegValid(t *testing.T) {
	for r := 0; r < NumRegs; r++ {
		if !Reg(r).Valid() {
			t.Errorf("Reg(%d).Valid() = false", r)
		}
	}
	if Reg(NumRegs).Valid() {
		t.Error("Reg(NumRegs).Valid() = true")
	}
}

func TestOpNamesRoundTrip(t *testing.T) {
	for op := Op(0); op < opCount; op++ {
		name := op.String()
		if strings.HasPrefix(name, "op(") {
			t.Fatalf("opcode %d has no name", op)
		}
		back, ok := ByName(name)
		if !ok || back != op {
			t.Errorf("ByName(%q) = %v, %v; want %v, true", name, back, ok, op)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("frobnicate"); ok {
		t.Error("ByName(frobnicate) succeeded")
	}
}

func TestOpValid(t *testing.T) {
	if !OpHalt.Valid() {
		t.Error("OpHalt invalid")
	}
	if Op(200).Valid() {
		t.Error("Op(200) valid")
	}
}

func TestShapesCoverAllOpcodes(t *testing.T) {
	for op := Op(0); op < opCount; op++ {
		if _, ok := shapes[op]; !ok {
			t.Errorf("opcode %v has no shape entry", op)
		}
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		in   Instr
		ok   bool
	}{
		{"nop", Instr{Op: OpNop}, true},
		{"const ok", Instr{Op: OpConst, Rd: 3, Imm: 7}, true},
		{"const bad rd", Instr{Op: OpConst, Rd: 16}, false},
		{"add ok", Instr{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, true},
		{"add bad rs1", Instr{Op: OpAdd, Rd: 1, Rs1: 99, Rs2: 3}, false},
		{"store bad rs2", Instr{Op: OpStore, Rs1: 0, Rs2: 77}, false},
		{"bad opcode", Instr{Op: Op(250)}, false},
	}
	for _, tc := range tests {
		err := tc.in.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestIsTerminator(t *testing.T) {
	term := []Op{OpJmp, OpBr, OpCall, OpRet, OpHalt, OpSpawn, OpYield, OpLock}
	for _, op := range term {
		in := Instr{Op: op}
		if !in.IsTerminator() {
			t.Errorf("%v should be a terminator", op)
		}
	}
	nonTerm := []Op{OpNop, OpConst, OpAdd, OpLoad, OpStore, OpUnlock, OpAssert, OpInput, OpOutput, OpAlloc, OpFree}
	for _, op := range nonTerm {
		in := Instr{Op: op}
		if in.IsTerminator() {
			t.Errorf("%v should not be a terminator", op)
		}
	}
}

func TestWritesReg(t *testing.T) {
	in := Instr{Op: OpAdd, Rd: 5, Rs1: 1, Rs2: 2}
	r, ok := in.WritesReg()
	if !ok || r != 5 {
		t.Errorf("add WritesReg = %v, %v", r, ok)
	}
	in = Instr{Op: OpCall}
	r, ok = in.WritesReg()
	if !ok || r != SP {
		t.Errorf("call WritesReg = %v, %v; want sp", r, ok)
	}
	in = Instr{Op: OpStore, Rs1: 1, Rs2: 2}
	if _, ok := in.WritesReg(); ok {
		t.Error("store should not write a register")
	}
}

func TestReadsRegs(t *testing.T) {
	in := Instr{Op: OpStore, Rs1: 3, Rs2: 4}
	got := in.ReadsRegs(nil)
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("store ReadsRegs = %v", got)
	}
	in = Instr{Op: OpRet}
	got = in.ReadsRegs(nil)
	if len(got) != 1 || got[0] != SP {
		t.Errorf("ret ReadsRegs = %v, want [sp]", got)
	}
	in = Instr{Op: OpConst, Rd: 1}
	if got := in.ReadsRegs(nil); len(got) != 0 {
		t.Errorf("const ReadsRegs = %v, want empty", got)
	}
}

func TestMemEffects(t *testing.T) {
	if !(&Instr{Op: OpLoad}).ReadsMem() || !(&Instr{Op: OpRet}).ReadsMem() {
		t.Error("load/ret should read memory")
	}
	if !(&Instr{Op: OpStore}).WritesMem() || !(&Instr{Op: OpCall}).WritesMem() {
		t.Error("store/call should write memory")
	}
	if (&Instr{Op: OpAdd}).ReadsMem() || (&Instr{Op: OpAdd}).WritesMem() {
		t.Error("add should not touch memory")
	}
}

func TestInstrString(t *testing.T) {
	tests := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpConst, Rd: 2, Imm: -5}, "const r2, -5"},
		{Instr{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Instr{Op: OpLoad, Rd: 1, Rs1: 15, Imm: 2}, "load r1, sp, 2"},
		{Instr{Op: OpJmp, Target: 12}, "jmp @12"},
		{Instr{Op: OpJmp, Target: 12, Sym: "loop"}, "jmp loop"},
		{Instr{Op: OpBr, Rs1: 4, Target: 3, Target2: 9}, "br r4, @3, @9"},
		{Instr{Op: OpHalt}, "halt"},
		{Instr{Op: OpSpawn, Rs1: 2, Target: 7, Sym: "worker"}, "spawn worker, r2"},
		{Instr{Op: OpInput, Rd: 0, Imm: 1}, "input r0, 1"},
	}
	for _, tc := range tests {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func randomInstr(rng *rand.Rand) Instr {
	for {
		op := Op(rng.Intn(int(opCount)))
		in := Instr{
			Op:      op,
			Rd:      Reg(rng.Intn(NumRegs)),
			Rs1:     Reg(rng.Intn(NumRegs)),
			Rs2:     Reg(rng.Intn(NumRegs)),
			Imm:     rng.Int63() - rng.Int63(),
			Target:  rng.Intn(1 << 20),
			Target2: rng.Intn(1 << 20),
		}
		if rng.Intn(2) == 0 {
			in.Sym = "fn" + string(rune('a'+rng.Intn(26)))
		}
		if in.Validate() == nil {
			return in
		}
	}
}

// readStream reads MarshalStream's layout back under the shared wire
// rules. The stream is only ever hashed, so this reader lives here: it
// proves distinct programs encode to distinct bytes.
func readStream(b []byte) ([]Instr, error) {
	d := wire.NewDecoder(b, streamMagic)
	code := make([]Instr, d.Count("instruction count", 1<<20))
	for i := range code {
		hdr := d.Raw(4)
		if d.Err() != nil {
			break
		}
		code[i] = Instr{Op: Op(hdr[0]), Rd: Reg(hdr[1]), Rs1: Reg(hdr[2]), Rs2: Reg(hdr[3])}
		code[i].Imm = d.Varint()
		code[i].Target = int(d.Varint())
		code[i].Target2 = int(d.Varint())
		code[i].Sym = d.Str("symbol length", 1<<16)
	}
	return code, d.Finish()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(64)
		code := make([]Instr, n)
		for i := range code {
			code[i] = randomInstr(rng)
		}
		b, err := MarshalStream(code)
		if err != nil {
			t.Fatalf("trial %d: Marshal: %v", trial, err)
		}
		got, err := readStream(b)
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if len(got) != len(code) {
			t.Fatalf("trial %d: len = %d, want %d", trial, len(got), len(code))
		}
		for i := range code {
			if got[i] != code[i] {
				t.Fatalf("trial %d: instr %d = %+v, want %+v", trial, i, got[i], code[i])
			}
		}
	}
}

func TestMarshalStreamRejectsInvalidInstr(t *testing.T) {
	code := []Instr{{Op: OpConst, Rd: 1, Imm: 99}, {Op: OpConst, Rd: 99}} // rd out of range
	if _, err := MarshalStream(code); err == nil {
		t.Error("expected error for invalid register in stream")
	}
}

// Property: String never panics and Validate is deterministic for arbitrary
// instruction bit patterns.
func TestQuickValidateAndString(t *testing.T) {
	f := func(op, rd, rs1, rs2 uint8, imm int64) bool {
		in := Instr{Op: Op(op % 64), Rd: Reg(rd % 32), Rs1: Reg(rs1 % 32), Rs2: Reg(rs2 % 32), Imm: imm}
		e1 := in.Validate()
		e2 := in.Validate()
		_ = in.String()
		return (e1 == nil) == (e2 == nil)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
