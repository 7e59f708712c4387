package cli

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"res/internal/asm"
	"res/internal/coredump"
	"res/internal/mem"
	"res/internal/vm"
)

func TestParseInputs(t *testing.T) {
	got, err := ParseInputs([]string{"0=1,2,3", "5=-7", "0=4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 4 || got[0][3] != 4 {
		t.Errorf("channel 0 = %v", got[0])
	}
	if len(got[5]) != 1 || got[5][0] != -7 {
		t.Errorf("channel 5 = %v", got[5])
	}
	if m, err := ParseInputs(nil); err != nil || m != nil {
		t.Errorf("empty specs = %v, %v", m, err)
	}
	for _, bad := range []string{"nospec", "x=1", "0=a"} {
		if _, err := ParseInputs([]string{bad}); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	// Hex and whitespace.
	got, err = ParseInputs([]string{"0x10 = 0x20 , 2"})
	if err != nil || got[16][0] != 32 || got[16][1] != 2 {
		t.Errorf("hex spec = %v, %v", got, err)
	}
}

func TestInputSpecsFlag(t *testing.T) {
	var s InputSpecs
	if err := s.Set("0=1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("1=2"); err != nil {
		t.Fatal(err)
	}
	if s.String() != "0=1;1=2" {
		t.Errorf("String = %q", s.String())
	}
}

func TestLoadProgramAndDumpRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := `
func main:
    const r1, 0
    assert r1
    halt
`
	progPath := filepath.Join(dir, "p.s")
	if err := os.WriteFile(progPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProgram(progPath)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(p, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := v.Run()
	if err != nil || d == nil {
		t.Fatalf("run: %v %v", d, err)
	}
	dumpPath := filepath.Join(dir, "core.dump")
	if err := SaveDump(dumpPath, d); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := LoadDump(dumpPath, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fault != d.Fault {
		t.Errorf("fault round trip: %v vs %v", got.Fault, d.Fault)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadProgram("/nonexistent/x.s"); err == nil {
		t.Error("missing program accepted")
	}
	if _, _, _, err := LoadDump("/nonexistent/x.dump", asm.MustAssemble("func main:\n    halt\n")); err == nil {
		t.Error("missing dump accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.s")
	os.WriteFile(bad, []byte("func main:\n frobnicate\n"), 0o644)
	if _, err := LoadProgram(bad); err == nil {
		t.Error("bad assembly accepted")
	}
}

// TestLoadDumpRejectsForeignImageSize: a dump file is decoded against
// its program's layout, so a 30-byte file claiming a 2^28-word image is
// rejected before that image is allocated.
func TestLoadDumpRejectsForeignImageSize(t *testing.T) {
	b, err := (&coredump.Dump{Mem: mem.NewImage(1)}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// A one-word zero image encodes as its size, 1, then one zero run of 1.
	tail := []byte{1, 0, 1}
	if !bytes.HasSuffix(b, tail) {
		t.Fatalf("one-word image does not end the dump as % x: % x", tail, b)
	}
	huge := binary.AppendUvarint(nil, 1<<28)
	b = append(append(b[:len(b)-len(tail)], huge...), 0)
	b = append(b, huge...)
	path := filepath.Join(t.TempDir(), "huge.dump")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	p := asm.MustAssemble("func main:\n    halt\n")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err = LoadDump(path, p)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("%d-byte dump claiming 2^28 words: error %v, want one naming %s", len(b), err, path)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting it allocated %d bytes, want < 1 MiB", grew)
	}
}
