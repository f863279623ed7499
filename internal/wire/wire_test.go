package wire

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTripAllTypes(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(0)
	w.Uvarint(1<<63 + 12345)
	w.Int(42)
	w.Float(3.25)
	w.Float(math.Inf(1))
	w.Floats([]float64{1, 2, 3})
	w.Floats(nil)
	w.Bytes([]byte("hello"))
	w.Bytes(nil)
	w.Bool(true)
	w.Bool(false)
	w.Byte(0xAB)
	w.Uint16(0xFE01)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<63+12345 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Int(); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Float(); got != 3.25 {
		t.Errorf("Float = %g", got)
	}
	if got := r.Float(); !math.IsInf(got, 1) {
		t.Errorf("Float = %g", got)
	}
	fs := r.Floats()
	if len(fs) != 3 || fs[2] != 3 {
		t.Errorf("Floats = %v", fs)
	}
	if got := r.Floats(); got != nil {
		t.Errorf("empty Floats = %v", got)
	}
	if got := r.Bytes(); string(got) != "hello" {
		t.Errorf("Bytes = %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("empty Bytes = %q", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.Byte(); got != 0xAB {
		t.Errorf("Byte = %#x", got)
	}
	if got := r.Uint16(); got != 0xFE01 {
		t.Errorf("Uint16 = %#x", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderStickyErrors(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint on empty = %d", got)
	}
	if r.Err() == nil {
		t.Fatal("no error after reading from empty stream")
	}
	first := r.Err()
	r.Float()
	r.Bytes()
	if !errors.Is(r.Err(), first) && r.Err() != first {
		t.Error("error not sticky")
	}
}

func TestWriterNegativeInt(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(-1)
	if w.Err() == nil {
		t.Fatal("negative Int accepted")
	}
}

func TestReaderLengthLimit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(MaxBytes + 1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	r.Int()
	if r.Err() == nil {
		t.Fatal("oversized length accepted")
	}
}

func TestBytesTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(100) // claims 100 bytes follow
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	r.Bytes()
	if r.Err() == nil {
		t.Fatal("truncated Bytes accepted")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(u uint64, fl float64, b []byte, ok bool) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Uvarint(u)
		w.Float(fl)
		w.Bytes(b)
		w.Bool(ok)
		if w.Flush() != nil {
			return false
		}
		r := NewReader(&buf)
		gu := r.Uvarint()
		gf := r.Float()
		gb := r.Bytes()
		gok := r.Bool()
		if r.Err() != nil {
			return false
		}
		floatSame := gf == fl || (math.IsNaN(gf) && math.IsNaN(fl))
		return gu == u && floatSame && bytes.Equal(gb, b) && gok == ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
