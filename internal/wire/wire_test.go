package wire

import (
	"math"
	"testing"
)

func TestVarintsRoundTripMinimally(t *testing.T) {
	e := NewEncoder("M")
	us := []uint64{0, 1, 127, 128, 1 << 35, math.MaxUint64}
	vs := []int64{0, -1, 63, -64, 64, math.MinInt64, math.MaxInt64}
	for _, u := range us {
		e.Uvarint(u)
	}
	for _, v := range vs {
		e.Varint(v)
	}
	d := NewDecoder(e.Bytes(), "M")
	for _, u := range us {
		if got := d.Uvarint(); got != u {
			t.Errorf("Uvarint = %d, want %d", got, u)
		}
	}
	for _, v := range vs {
		if got := d.Varint(); got != v {
			t.Errorf("Varint = %d, want %d", got, v)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderRejects(t *testing.T) {
	uvarint := func(d *Decoder) { d.Uvarint() }
	for _, tc := range []struct {
		name, in string
		read     func(*Decoder)
	}{
		{"bad magic", "X\x00", uvarint},
		{"truncated varint", "M\x80", uvarint},
		{"overflow", "M\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02", uvarint},
		{"overlong uvarint", "M\x81\x00", uvarint},
		{"overlong varint", "M\x80\x80\x00", func(d *Decoder) { d.Varint() }},
		{"over the limit", "M\x04", func(d *Decoder) { d.Count("count", 3) }},
		{"truncated blob", "M\x03ab", func(d *Decoder) { d.Blob("blob length", 8) }},
		{"trailing bytes", "M\x01\x01", uvarint},
	} {
		d := NewDecoder([]byte(tc.in), "M")
		tc.read(d)
		if err := d.Finish(); err == nil {
			t.Errorf("%s: %q decoded without error", tc.name, tc.in)
		}
	}
}
