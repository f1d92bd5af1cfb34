package types

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestDatumIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Datum{}); got != 32 {
		t.Errorf("sizeof(Datum) = %d, want 32", got)
	}
}

func TestFloatBitsRoundTrip(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		d := NewFloat(f)
		if got := d.Float(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("NewFloat(%v).Float() = %v", f, got)
		}
	}
	if !math.IsNaN(NewFloat(math.NaN()).Float()) {
		t.Error("NaN did not survive")
	}
	if Compare(NewFloat(2), NewInt(2)) != 0 || Hash(NewFloat(2)) != Hash(NewInt(2)) {
		t.Error("integral float must compare and hash like its integer")
	}
}

func TestValueRoundTrip(t *testing.T) {
	row := Row{
		Null, NewInt(0), NewInt(-1), NewInt(63), NewInt(-64), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(-0.125), NewFloat(math.Inf(-1)), NewBool(false), NewBool(true),
		NewTime(time.Date(1969, 12, 31, 23, 59, 59, 1, time.UTC)), NewString(""), NewString("a\x00\xffb"),
		NewString(strings.Repeat("z", 1000)),
	}
	enc := EncodeValues(nil, row)
	got, err := DecodeValues(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(row) {
		t.Fatalf("decoded %d datums, want %d", len(got), len(row))
	}
	for i := range row {
		if got[i] != row[i] {
			t.Errorf("datum %d = %#v, want %#v", i, got[i], row[i])
		}
	}
	if len(EncodeValues(nil, Row{NewInt(5)})) != 2 {
		t.Error("a small int should take two bytes")
	}
	if r, err := DecodeValues(nil); r != nil || err != nil {
		t.Errorf("empty input = %v, %v", r, err)
	}
}

func TestValueDecodeRejectsCorrupt(t *testing.T) {
	for _, buf := range [][]byte{
		{0x7f},                        // unknown tag
		{tagInt},                      // missing varint
		{tagInt, 0x80},                // unterminated varint
		{tagFloat, 1, 2, 3},           // short float
		{tagBool},                     // missing bool byte
		{tagBool, 2},                  // bool out of range
		{tagString, 5, 'a'},           // length past the end
		{tagString, 0xff, 0xff, 0xff}, // unterminated length
	} {
		if _, err := DecodeValues(buf); !errors.Is(err, ErrCorruptKey) {
			t.Errorf("DecodeValues(%x) = %v, want ErrCorruptKey", buf, err)
		}
	}
}

func TestDecodeKeyAllocatesOnce(t *testing.T) {
	enc := EncodeKey(nil, Row{NewInt(1), NewInt(2), NewFloat(3), NewInt(4), Null, NewInt(6)})
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeKey(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("DecodeKey allocated %v times per row, want 1", allocs)
	}
}
