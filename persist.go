package mvptree

import (
	"io"

	"mvptree/internal/codec"
	"mvptree/internal/metric"
	"mvptree/internal/mvp"
)

// Persistence: a built tree is written to a stream and reloaded without
// recomputing any distances — the expensive part of construction on the
// metric domains this library targets. Items travel through an
// encoder/decoder pair; built-in pairs cover the paper's three item
// types. The metric itself is NOT serialized: Load must be given the
// same distance function the tree was built with, or query results will
// be silently wrong.

// ItemEncoder serializes one item for persistence.
type ItemEncoder[T any] = mvp.ItemEncoder[T]

// ItemDecoder deserializes one item.
type ItemDecoder[T any] = mvp.ItemDecoder[T]

// SaveTree writes an mvp-tree to w.
func SaveTree[T any](w io.Writer, t *Tree[T], enc ItemEncoder[T]) error {
	return t.Save(w, enc)
}

// LoadTree reads a tree written by SaveTree — an mvp-tree or a vp-tree,
// as the stream says — measuring future queries through a fresh Counter
// over dist. The stream is the rest of r: LoadTree reads r to its end.
func LoadTree[T any](r io.Reader, dist DistanceFunc[T], dec ItemDecoder[T]) (*Tree[T], error) {
	return mvp.Load(r, metric.NewCounter(dist), mvp.ItemDecoder[T](dec))
}

// SaveVPTree is SaveTree: a vp-tree is a Tree, and the stream records
// how many vantage points its nodes have.
func SaveVPTree[T any](w io.Writer, t *VPTree[T], enc ItemEncoder[T]) error {
	return SaveTree(w, t, enc)
}

// LoadVPTree is LoadTree. Streams written by SaveVPTree before the two
// trees shared a format ("VPTREE1") are refused with an error that says
// to rebuild.
func LoadVPTree[T any](r io.Reader, dist DistanceFunc[T], dec ItemDecoder[T]) (*VPTree[T], error) {
	return LoadTree(r, dist, dec)
}

// Built-in item codecs for the paper's domains.

// EncodeVector and DecodeVector persist float64 vectors.
func EncodeVector(v []float64) ([]byte, error) { return codec.EncodeVector(v) }
func DecodeVector(b []byte) ([]float64, error) { return codec.DecodeVector(b) }

// EncodeString and DecodeString persist strings.
func EncodeString(s string) ([]byte, error) { return codec.EncodeString(s) }
func DecodeString(b []byte) (string, error) { return codec.DecodeString(b) }

// EncodeImage and DecodeImage persist gray-level images (as binary PGM).
func EncodeImage(im *Image) ([]byte, error) { return codec.EncodeImage(im) }
func DecodeImage(b []byte) (*Image, error)  { return codec.DecodeImage(b) }
