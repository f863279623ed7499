package testutil

import (
	"bytes"
	"hash/crc32"

	"mvptree/internal/wire"
)

// The trees' Save streams share one envelope: a magic string, the
// payload, the payload's CRC. The helpers below let a decoder's fuzz
// test get a payload of its own making past the checksum.

// Seal frames payload as Save does, so a mutated payload still reaches
// the decoder.
func Seal(magic string, payload []byte) []byte {
	return Payload(func(w *wire.Writer) {
		w.Bytes([]byte(magic))
		w.Bytes(payload)
		w.Uvarint(uint64(crc32.ChecksumIEEE(payload)))
	})
}

// PayloadOf is Seal's inverse for a stream Save wrote.
func PayloadOf(stream []byte) []byte {
	r := wire.NewReader(bytes.NewReader(stream))
	r.Bytes()
	return r.Bytes()
}

// Payload returns the bytes write produces, for the payloads Save never
// writes.
func Payload(write func(w *wire.Writer)) []byte {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	write(w)
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
