package testutil

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"mvptree/internal/wire"
)

// The trees' Save streams share one envelope: a magic string, the
// payload, the payload's CRC. A stream whose magic is ArenaMagic frames
// its payload otherwise: nothing announces its length, and the CRC is a
// fixed 4-byte trailer. The helpers below let a decoder's fuzz test get a
// payload of its own making past the checksum.

// ArenaMagic is the magic of the mvp-tree's bulk format.
const ArenaMagic = "MVPTREE4"

// Seal frames payload as Save does, so a mutated payload still reaches
// the decoder.
func Seal(magic string, payload []byte) []byte {
	if magic == ArenaMagic {
		stream := Payload(func(w *wire.Writer) { w.Bytes([]byte(magic)) })
		return binary.LittleEndian.AppendUint32(append(stream, payload...), crc32.ChecksumIEEE(payload))
	}
	return Payload(func(w *wire.Writer) {
		w.Bytes([]byte(magic))
		w.Bytes(payload)
		w.Uvarint(uint64(crc32.ChecksumIEEE(payload)))
	})
}

// PayloadOf is Seal's inverse for a stream Save wrote.
func PayloadOf(stream []byte) []byte {
	r := wire.NewReader(bytes.NewReader(stream))
	if magic := r.Bytes(); string(magic) == ArenaMagic {
		return stream[1+len(magic) : len(stream)-4]
	}
	return r.Bytes()
}

// ArenaFaults returns, by name, streams that Load must refuse, made from
// stream, an ArenaMagic stream of a tree of two levels at least. All but
// one carry a valid CRC: the payload cut at every arena boundary, each
// arena count announced one larger and announced at wire.MaxBytes, the
// filter arena one row short in its count and its bytes alike, a child
// claimed by two parents (the root's first internal child also claims the
// root's last child), and an internal node (the last) whose rows of the
// cutoff arena start at its end. The one more has a bad trailer.
func ArenaFaults(stream []byte) map[string][]byte {
	const rowBytes = 16 // off, cnt, foff as u32; held u16; svs, internal as bytes
	payload := PayloadOf(stream)
	le := binary.LittleEndian
	var header []int
	rest := payload
	for range 12 { // m, k, p, n, e, v, then the arena counts
		u, n := binary.Uvarint(rest)
		header, rest = append(header, int(u)), rest[n:]
	}
	v, nodes := header[5], header[6]
	arenas := []string{"nodes", "points", "items", "cuts", "kids", "filter"}
	rows := len(payload) - len(rest)
	ends := map[string]int{"header": rows}
	at := rows + rowBytes*nodes
	ends["nodes"] = at
	for i, name := range arenas[1:3] {
		for range header[7+i] {
			u, n := binary.Uvarint(payload[at:])
			at += n + int(u)
		}
		ends[name] = at
	}
	ends["cuts"] = at + 8*header[9]
	kids := ends["cuts"]
	ends["kids"] = kids + 4*header[10]

	faults := map[string][]byte{}
	for name, end := range ends {
		if end < len(payload) { // the arenas after it are not all empty
			faults["cut-after-"+name] = Seal(ArenaMagic, payload[:end])
		}
	}
	for i, name := range arenas {
		for _, count := range []int{header[6+i] + 1, wire.MaxBytes} {
			var b []byte
			for j, x := range header {
				if j == 6+i {
					x = count
				}
				b = binary.AppendUvarint(b, uint64(x))
			}
			faults[fmt.Sprintf("announces-%d-%s", count, name)] = Seal(ArenaMagic, append(b, rest...))
		}
	}
	row := func(p []byte, i int) (cnt, foff int, internal bool, at int) {
		at = rows + rowBytes*i
		r := p[at:]
		return int(le.Uint32(r[4:])), int(le.Uint32(r[8:])), r[15] == 1, at
	}
	// Internal node i's child slots: with two vantage points they start
	// past a count per shell.
	children := func(p []byte, i int) (slots []int) {
		shells, foff, _, _ := row(p, i)
		first, all := foff, shells
		if v == 2 {
			first, all = foff+shells, 0
			for g := range shells {
				all += int(int32(le.Uint32(p[kids+4*(foff+g):])))
			}
		}
		for h := range all {
			slots = append(slots, kids+4*(first+h))
		}
		return slots
	}
	// The filter arena one row short: the last leaf's last row dropped from
	// the count and from the bytes, so only the rows' own sum of codes tells.
	for i := nodes - 1; i >= 0; i-- {
		if cnt, _, internal, at := row(payload, i); !internal && cnt > 0 {
			stride := 2 + int(le.Uint16(payload[at+12:]))
			var b []byte
			for j, x := range header {
				if j == 11 {
					x -= stride
				}
				b = binary.AppendUvarint(b, uint64(x))
			}
			short := append(b, rest...)
			faults["filter-short"] = Seal(ArenaMagic, short[:len(short)-2*stride])
			break
		}
	}
	twice := bytes.Clone(payload)
	var claimed []int32
	for _, slot := range children(twice, 0) {
		if c := int32(le.Uint32(twice[slot:])); c >= 0 {
			claimed = append(claimed, c)
		}
	}
	for _, c := range claimed {
		if _, _, internal, _ := row(twice, int(c)); internal {
			le.PutUint32(twice[children(twice, int(c))[0]:], uint32(claimed[len(claimed)-1]))
			break
		}
	}
	faults["child-of-two"] = Seal(ArenaMagic, twice)
	past := bytes.Clone(payload)
	for i := nodes - 1; i >= 0; i-- {
		if _, _, internal, at := row(past, i); internal {
			le.PutUint32(past[at:], uint32(header[9]))
			break
		}
	}
	faults["rows-past-cuts"] = Seal(ArenaMagic, past)
	bad := bytes.Clone(stream)
	bad[len(bad)-1] ^= 0xff
	faults["bad-trailer"] = bad
	return faults
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
