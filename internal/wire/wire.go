// Package wire provides the minimal binary encoding used to persist
// index structures: unsigned varints, IEEE-754 floats, 16-bit words,
// length-prefixed byte strings and booleans, with sticky error handling
// so encoders and decoders read as straight-line code.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// MaxBytes bounds a single length-prefixed byte string; longer lengths
// in the input indicate corruption.
const MaxBytes = 1 << 28

// firstChunk is the most a reader allocates on the word of a length
// prefix alone; past it, Bytes and Floats grow with the data that
// actually arrives, so a corrupt length costs no more memory than the
// stream is long.
const firstChunk = 1 << 16

// Writer serializes values with sticky errors.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Err reports the first error encountered.
func (w *Writer) Err() error { return w.err }

// Flush flushes buffered output and returns the first error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(u uint64) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], u)
	_, w.err = w.w.Write(buf[:n])
}

// Int writes a non-negative int as a varint; negative values are an
// encoding bug and set the error.
func (w *Writer) Int(n int) {
	if n < 0 {
		if w.err == nil {
			w.err = fmt.Errorf("wire: negative length %d", n)
		}
		return
	}
	w.Uvarint(uint64(n))
}

// Float writes a float64 as its IEEE-754 bits, little endian.
func (w *Writer) Float(f float64) {
	if w.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	_, w.err = w.w.Write(buf[:])
}

// Uint16 writes a 16-bit word, little endian.
func (w *Writer) Uint16(u uint16) {
	if w.err != nil {
		return
	}
	if w.err = w.w.WriteByte(byte(u)); w.err == nil {
		w.err = w.w.WriteByte(byte(u >> 8))
	}
}

// Floats writes a length-prefixed float64 slice.
func (w *Writer) Floats(fs []float64) {
	w.Int(len(fs))
	for _, f := range fs {
		w.Float(f)
	}
}

// Bytes writes a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.Int(len(b))
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

// Bool writes a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if w.err != nil {
		return
	}
	v := byte(0)
	if b {
		v = 1
	}
	w.err = w.w.WriteByte(v)
}

// Byte writes one raw byte.
func (w *Writer) Byte(b byte) {
	if w.err != nil {
		return
	}
	w.err = w.w.WriteByte(b)
}

// Reader deserializes values with sticky errors.
type Reader struct {
	r   *bufio.Reader
	src io.Reader
	err error
}

// NewReader returns a Reader on r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r), src: r}
}

// Err reports the first error encountered.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.fail(fmt.Errorf("wire: reading varint: %w", err))
		return 0
	}
	return u
}

// Int reads a varint-encoded non-negative int bounded by MaxBytes.
func (r *Reader) Int() int {
	u := r.Uvarint()
	if u > MaxBytes {
		r.fail(fmt.Errorf("wire: length %d exceeds limit", u))
		return 0
	}
	return int(u)
}

// Float reads a float64.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	var buf [8]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		r.fail(fmt.Errorf("wire: reading float: %w", err))
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
}

// Uint16 reads a 16-bit word.
func (r *Reader) Uint16() uint16 {
	if r.err != nil {
		return 0
	}
	var buf [2]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		r.fail(fmt.Errorf("wire: reading uint16: %w", err))
		return 0
	}
	return binary.LittleEndian.Uint16(buf[:])
}

// Floats reads a length-prefixed float64 slice; nil for length zero.
func (r *Reader) Floats() []float64 {
	n := r.Int()
	if n == 0 || r.err != nil {
		return nil
	}
	out := make([]float64, 0, min(n, firstChunk/8))
	for len(out) < n && r.err == nil {
		out = append(out, r.Float())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Bytes reads a length-prefixed byte string.
func (r *Reader) Bytes() []byte {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	out := make([]byte, min(n, firstChunk))
	for read := 0; ; {
		if _, err := io.ReadFull(r.r, out[read:]); err != nil {
			r.fail(fmt.Errorf("wire: reading bytes: %w", err))
			return nil
		}
		if read = len(out); read == n {
			return out
		}
		out = append(out, make([]byte, min(read, n-read))...)
	}
}

// Rest reads everything left in the stream: into one allocation of the
// right size where the stream says how much is left (a bytes.Reader
// does), else growing with what arrives.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	left := r.r.Buffered()
	if s, ok := r.src.(interface{ Len() int }); ok {
		left += s.Len()
	}
	// ReadFrom wants MinRead bytes of room before every read, the last one
	// too, which finds the end.
	buf := bytes.NewBuffer(make([]byte, 0, left+bytes.MinRead))
	if _, err := buf.ReadFrom(r.r); err != nil {
		r.fail(fmt.Errorf("wire: reading to the end: %w", err))
		return nil
	}
	return buf.Bytes()
}

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	return r.Byte() != 0
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	if err != nil {
		r.fail(fmt.Errorf("wire: reading byte: %w", err))
		return 0
	}
	return b
}
