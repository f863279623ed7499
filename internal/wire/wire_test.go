package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
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

// TestRest: what is left after a read, from a stream that says how much
// that is — read into one allocation of that size — and from one that
// does not, larger than the read buffer.
func TestRest(t *testing.T) {
	rest := bytes.Repeat([]byte("0123456789"), 1000)
	stream := append([]byte{7}, rest...)
	for name, src := range map[string]io.Reader{
		"sized":   bytes.NewReader(stream),
		"unsized": iotest.HalfReader(bytes.NewReader(stream)),
	} {
		r := NewReader(src)
		r.Byte()
		if got := r.Rest(); !bytes.Equal(got, rest) || r.Err() != nil {
			t.Errorf("%s: Rest = %d bytes, %v; want %d", name, len(got), r.Err(), len(rest))
		}
	}
	if allocs := testing.AllocsPerRun(1, func() { NewReader(bytes.NewReader(stream)).Rest() }); allocs > 4 {
		t.Errorf("Rest of a sized stream allocated %.0f times", allocs)
	}
	if got := NewReader(iotest.ErrReader(errors.New("boom"))).Rest(); got != nil {
		t.Errorf("Rest of a failing stream = %q", got)
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

// FuzzReader runs arbitrary bytes through a fixed read program. The
// reader must never panic, must keep its first error and answer zero
// values after it, and must never return a slice longer than the input.
// The second half round-trips fuzz-chosen values through Writer → Reader.
func FuzzReader(f *testing.F) {
	f.Add([]byte{}, uint64(0), 0.0, uint16(0), []byte(nil), false)
	f.Add([]byte{7, 1, 0x80, 0x80, 0x01, 3, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0xff, 0xff, 2, 'h', 'i'}, uint64(1)<<63, math.Inf(-1), uint16(0xffff), []byte("abc"), true)
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint64(300), math.NaN(), uint16(1), bytes.Repeat([]byte{9}, 100), false)
	f.Add(bytes.Repeat([]byte{0x80}, 40), uint64(MaxBytes+1), -0.0, uint16(256), []byte{0}, true)
	f.Fuzz(func(t *testing.T, data []byte, u uint64, x float64, h uint16, b []byte, flag bool) {
		r := NewReader(bytes.NewReader(data))
		var first error
		check := func(op string, zero bool) {
			err := r.Err()
			if err == nil {
				return
			}
			if first == nil {
				first = err
			}
			if err != first {
				t.Fatalf("%s replaced the first error %v with %v", op, first, err)
			}
			if !zero {
				t.Fatalf("%s answered a value on a failed reader", op)
			}
		}
		for range 3 {
			v := r.Byte()
			check("Byte", v == 0)
			bo := r.Bool()
			check("Bool", !bo)
			uv := r.Uvarint()
			check("Uvarint", uv == 0)
			n := r.Int()
			check("Int", n == 0)
			if n < 0 || n > MaxBytes {
				t.Fatalf("Int = %d, outside [0, MaxBytes]", n)
			}
			fl := r.Float()
			check("Float", math.Float64bits(fl) == 0)
			w := r.Uint16()
			check("Uint16", w == 0)
			fs := r.Floats()
			check("Floats", fs == nil)
			if 8*len(fs) > len(data) {
				t.Fatalf("Floats returned %d values from %d bytes", len(fs), len(data))
			}
			bs := r.Bytes()
			check("Bytes", bs == nil)
			if len(bs) > len(data) {
				t.Fatalf("Bytes returned %d bytes from %d", len(bs), len(data))
			}
		}

		var buf bytes.Buffer
		wr := NewWriter(&buf)
		wr.Byte(byte(u))
		wr.Bool(flag)
		wr.Uvarint(u)
		wr.Int(int(h))
		wr.Float(x)
		wr.Uint16(h)
		wr.Floats([]float64{x, -x})
		wr.Bytes(b)
		if err := wr.Flush(); err != nil {
			t.Fatal(err)
		}
		r = NewReader(&buf)
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if got := r.Byte(); got != byte(u) {
			t.Fatalf("Byte %d, wrote %d", got, byte(u))
		}
		if got := r.Bool(); got != flag {
			t.Fatalf("Bool %v, wrote %v", got, flag)
		}
		if got := r.Uvarint(); got != u {
			t.Fatalf("Uvarint %d, wrote %d", got, u)
		}
		if got := r.Int(); got != int(h) {
			t.Fatalf("Int %d, wrote %d", got, h)
		}
		if got := r.Float(); !same(got, x) {
			t.Fatalf("Float %v, wrote %v", got, x)
		}
		if got := r.Uint16(); got != h {
			t.Fatalf("Uint16 %d, wrote %d", got, h)
		}
		if got := r.Floats(); len(got) != 2 || !same(got[0], x) || !same(got[1], -x) {
			t.Fatalf("Floats %v, wrote [%v %v]", got, x, -x)
		}
		if got := r.Bytes(); !bytes.Equal(got, b) {
			t.Fatalf("Bytes %q, wrote %q", got, b)
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		if r.Byte(); r.Err() == nil {
			t.Fatal("read past the written stream without an error")
		}
	})
}
