package fixverify

import (
	"bytes"
	"strings"
	"testing"
)

func samplePatch() *Patch {
	return &Patch{Ops: []Op{
		{Kind: OpReplace, Label: "check", Lines: []string{"    const r3, 5", "    cmpeq r4, r2, r3"}},
		{Kind: OpInsert, Label: "init", Lines: []string{"    const r9, 1"}},
		{Kind: OpDelete, Label: "dead"},
	}}
}

func TestPatchWireRoundTrip(t *testing.T) {
	p := samplePatch()
	b := p.Encode()
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got.Encode(), b) {
		t.Fatalf("decode∘encode is not a fixed point")
	}
	if got.Fingerprint() != p.Fingerprint() {
		t.Fatalf("fingerprint changed across round trip")
	}
}

func TestPatchIdentityIsEncodable(t *testing.T) {
	p := &Patch{}
	got, err := Decode(p.Encode())
	if err != nil {
		t.Fatalf("Decode(identity): %v", err)
	}
	if len(got.Ops) != 0 {
		t.Fatalf("identity patch decoded with %d ops", len(got.Ops))
	}
}

func TestPatchDecodeRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":          nil,
		"bad magic":      []byte("NOTAPATCH"),
		"trailing bytes": append((&Patch{}).Encode(), 0),
		"truncated":      samplePatch().Encode()[:12],
		"overlong count": []byte("RESPATCH1\x80\x00"),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted invalid input", name)
		}
	}
}

func TestPatchValidate(t *testing.T) {
	bad := []Patch{
		{Ops: []Op{{Kind: OpKind(9), Label: "x"}}},
		{Ops: []Op{{Kind: OpReplace, Label: ""}}},
		{Ops: []Op{{Kind: OpReplace, Label: "has space"}}},
		{Ops: []Op{{Kind: OpReplace, Label: "trail:"}}},
		{Ops: []Op{{Kind: OpDelete, Label: "x", Lines: []string{"nop"}}}},
		{Ops: []Op{{Kind: OpInsert, Label: "x", Lines: []string{"two\nlines"}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid patch", i)
		}
	}
}

func TestPatchFingerprintDistinct(t *testing.T) {
	a := &Patch{Ops: []Op{{Kind: OpReplace, Label: "check", Lines: []string{"    halt"}}}}
	b := &Patch{Ops: []Op{{Kind: OpReplace, Label: "check", Lines: []string{"    nop"}}}}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatalf("distinct patches share a fingerprint")
	}
}

func TestParseTextRoundTrip(t *testing.T) {
	text := `# fix the comparison
replace check
    const r3, 5
    cmpeq r4, r2, r3
end

insert init
    const r9, 1
end
delete dead
`
	p, err := ParseText(text)
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if len(p.Ops) != 3 || p.Ops[0].Kind != OpReplace || p.Ops[1].Kind != OpInsert || p.Ops[2].Kind != OpDelete {
		t.Fatalf("parsed ops wrong: %+v", p.Ops)
	}
	p2, err := ParseText(p.FormatText())
	if err != nil {
		t.Fatalf("reparse FormatText: %v", err)
	}
	if p2.Fingerprint() != p.Fingerprint() {
		t.Fatalf("FormatText round trip changed the patch")
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := map[string]string{
		"unknown op":  "frobnicate check\nend\n",
		"missing end": "replace check\n    halt\n",
		"bad header":  "replace\n",
	}
	for name, text := range cases {
		if _, err := ParseText(text); err == nil {
			t.Errorf("%s: ParseText accepted invalid input", name)
		}
	}
}

func TestDecodeAny(t *testing.T) {
	p := samplePatch()
	fromWire, err := DecodeAny(p.Encode())
	if err != nil {
		t.Fatalf("DecodeAny(wire): %v", err)
	}
	fromText, err := DecodeAny([]byte(p.FormatText()))
	if err != nil {
		t.Fatalf("DecodeAny(text): %v", err)
	}
	if fromWire.Fingerprint() != fromText.Fingerprint() {
		t.Fatalf("wire and text forms decode to different patches")
	}
}

const applySrc = `; apply test program
.global x 1
func main:
    const r1, 5
    storeg r1, &x
check:
    loadg r2, &x
    const r3, 4
    cmpeq r4, r2, r3
site:
    assert r4
    halt
`

func TestApplyReplace(t *testing.T) {
	p := &Patch{Ops: []Op{{Kind: OpReplace, Label: "check", Lines: []string{
		"    loadg r2, &x",
		"    const r3, 5",
		"    cmpeq r4, r2, r3",
	}}}}
	ap, err := Apply(applySrc, p)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if ap.Identity {
		t.Fatalf("replace patch reported as identity")
	}
	// Instructions 0..1 (const, storeg) are untouched and keep their PCs;
	// 2..4 were replaced; 5..6 (assert, halt) shift by the body delta (0).
	for _, pc := range []int{0, 1} {
		if got, ok := ap.PCMap[pc]; !ok || got != pc {
			t.Errorf("PCMap[%d] = %d, %v; want identity mapping", pc, got, ok)
		}
	}
	for _, pc := range []int{2, 3, 4} {
		if _, ok := ap.PCMap[pc]; ok {
			t.Errorf("PCMap[%d] exists; replaced instructions must be unmapped", pc)
		}
	}
	if got, ok := ap.PCMap[5]; !ok || got != 5 {
		t.Errorf("PCMap[5] = %d, %v; want 5 (same-size body)", got, ok)
	}
	if len(ap.Touched) != 3 {
		t.Errorf("Touched = %v; want the 3 replacement instructions", ap.Touched)
	}
}

func TestApplyInsertShiftsFollowing(t *testing.T) {
	p := &Patch{Ops: []Op{{Kind: OpInsert, Label: "check", Lines: []string{"    const r9, 1"}}}}
	ap, err := Apply(applySrc, p)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got := ap.PCMap[2]; got != 3 {
		t.Errorf("PCMap[2] = %d; want 3 (shifted past the insert)", got)
	}
	if !ap.Touched[2] {
		t.Errorf("inserted instruction at pc 2 not marked touched")
	}
	if len(ap.Program.Code) != ap.OrigInstrs+1 {
		t.Errorf("patched program has %d instructions; want %d", len(ap.Program.Code), ap.OrigInstrs+1)
	}
}

func TestApplyDelete(t *testing.T) {
	p := &Patch{Ops: []Op{{Kind: OpDelete, Label: "check"}}}
	ap, err := Apply(applySrc, p)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	for _, pc := range []int{2, 3, 4} {
		if _, ok := ap.PCMap[pc]; ok {
			t.Errorf("deleted instruction %d still mapped", pc)
		}
	}
	if got, ok := ap.PCMap[5]; !ok || got != 2 {
		t.Errorf("PCMap[5] = %d, %v; want 2 (shifted over the deleted body)", got, ok)
	}
	if len(ap.Touched) != 0 {
		t.Errorf("delete introduced instructions: %v", ap.Touched)
	}
}

func TestApplyIdentity(t *testing.T) {
	ap, err := Apply(applySrc, &Patch{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !ap.Identity {
		t.Fatalf("zero-op patch not detected as identity")
	}
	if len(ap.PCMap) != ap.OrigInstrs {
		t.Fatalf("identity PCMap covers %d of %d instructions", len(ap.PCMap), ap.OrigInstrs)
	}
}

func TestApplyErrors(t *testing.T) {
	cases := map[string]*Patch{
		"unknown label": {Ops: []Op{{Kind: OpDelete, Label: "nosuch"}}},
		"body declares global": {Ops: []Op{{Kind: OpReplace, Label: "check",
			Lines: []string{".global y 1"}}}},
		"body declares func": {Ops: []Op{{Kind: OpReplace, Label: "check",
			Lines: []string{"func evil:"}}}},
		"does not assemble": {Ops: []Op{{Kind: OpReplace, Label: "check",
			Lines: []string{"    bogusop r1"}}}},
	}
	for name, p := range cases {
		if _, err := Apply(applySrc, p); err == nil {
			t.Errorf("%s: Apply accepted invalid patch", name)
		}
	}
}

func TestApplyFuncLabel(t *testing.T) {
	// func headers are labels too: replacing "main" replaces the lines up
	// to the next label.
	p := &Patch{Ops: []Op{{Kind: OpReplace, Label: "main", Lines: []string{
		"    const r1, 4",
		"    storeg r1, &x",
	}}}}
	ap, err := Apply(applySrc, p)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !strings.Contains(ap.Source, "const r1, 4") {
		t.Fatalf("patched source missing replacement body")
	}
}
