package metric

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"mvptree/internal/dataset"
)

func TestEditKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"intention", "execution", 5},
		{"same", "same", 0},
		{"ab", "ba", 2}, // plain Levenshtein has no transposition
		{"book", "back", 2},
	}
	for _, c := range cases {
		if got := Edit(c.a, c.b); got != c.want {
			t.Errorf("Edit(%q, %q) = %g, want %g", c.a, c.b, got, c.want)
		}
		if got := Edit(c.b, c.a); got != c.want {
			t.Errorf("Edit(%q, %q) = %g, want %g (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestEditAxioms(t *testing.T) {
	sample := []string{"", "a", "ab", "abc", "abd", "xabc", "hello", "help", "world", "word"}
	if err := CheckAxioms(Edit, sample, 0); err != nil {
		t.Error(err)
	}
}

func TestEditBounds(t *testing.T) {
	// Property: max(|a|,|b|) - common prefix matches cannot be beaten,
	// and the distance is always between abs(len diff) and max len.
	f := func(a, b string) bool {
		d := Edit(a, b)
		lo := len(a) - len(b)
		if lo < 0 {
			lo = -lo
		}
		hi := len(a)
		if len(b) > hi {
			hi = len(b)
		}
		return d >= float64(lo) && d <= float64(hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestEditSingleOps(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	const letters = "abcdefgh"
	for i := 0; i < 200; i++ {
		n := 1 + rng.IntN(12)
		s := make([]byte, n)
		for j := range s {
			s[j] = letters[rng.IntN(len(letters))]
		}
		orig := string(s)
		// One substitution with a guaranteed-different letter.
		pos := rng.IntN(n)
		sub := []byte(orig)
		sub[pos] = sub[pos]%8 + 'i' // maps a..h to distinct i..p
		if got := Edit(orig, string(sub)); got != 1 {
			t.Fatalf("Edit(%q, %q) = %g after one substitution, want 1", orig, sub, got)
		}
		// One deletion.
		del := orig[:pos] + orig[pos+1:]
		if got := Edit(orig, del); got != 1 {
			t.Fatalf("Edit(%q, %q) = %g after one deletion, want 1", orig, del, got)
		}
	}
}

// editReference is the textbook two-row Levenshtein program the kernels
// replaced, kept as the oracle of FuzzEditKernels and
// TestEditKernelsAgainstReference.
func editReference(a, b string) float64 {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			m := prev[j-1] // substitution or match
			if a[i-1] != b[j-1] {
				m++
			}
			m = min(m, prev[j]+1, cur[j-1]+1) // deletion, insertion
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return float64(prev[len(b)])
}

// TestEditKernelsAgainstReference sweeps random pairs across the
// 64-byte seam of the bit-parallel kernel and every band halfwidth
// around the band/bit-vector switch, so the tier-1 run covers what the
// fuzzer explores.
func TestEditKernelsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 64))
	word := func(n, alphabet int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = byte(rng.IntN(alphabet)) * 37 // spans NUL and bytes ≥ 0x80
		}
		return s
	}
	lengths := []int{0, 1, 2, 7, 31, 62, 63, 64, 65, 66, 100, 129}
	for trial := 0; trial < 6000; trial++ {
		a := word(lengths[rng.IntN(len(lengths))], 2+rng.IntN(6))
		var b []byte
		if rng.IntN(2) == 0 {
			b = word(lengths[rng.IntN(len(lengths))], 2+rng.IntN(6))
		} else {
			// A few edits away, so small bounds land on both sides.
			b = append(b, a...)
			for e := rng.IntN(6); e > 0 && len(b) > 0; e-- {
				switch pos := rng.IntN(len(b)); rng.IntN(3) {
				case 0:
					b[pos] ^= 0x55
				case 1:
					b = append(b[:pos], b[pos+1:]...)
				default:
					b = append(b[:pos+1], b[pos:]...)
				}
			}
		}
		d := editReference(string(a), string(b))
		if got := Edit(string(a), string(b)); got != d {
			t.Fatalf("Edit(%q, %q) = %v, reference %v", a, b, got, d)
		}
		for _, bound := range []float64{0, 1, 2, 3, 4.5, d - 1, d - 0.5, d, d + 0.5, float64(rng.IntN(140))} {
			checkContract(t, "EditUpTo", d, EditUpTo(string(a), string(b), bound), bound)
		}
	}

	// EditRow: points of every length either side of the 64-byte seam,
	// each against a row of items of the same lengths — the point itself
	// and a copy one substitution away among them — picked by ids that
	// repeat and run out of order.
	rowLengths := []int{0, 1, 63, 64, 65}
	var items []string
	for _, n := range rowLengths {
		for range 3 {
			items = append(items, string(word(n, 2+rng.IntN(6))))
		}
	}
	near := len(items)
	items = append(items, "", "")
	ids := []int32{int32(near), int32(near + 1)}
	for range 3 * len(items) {
		ids = append(ids, int32(rng.IntN(len(items))))
	}
	out := make([]float64, len(ids))
	for _, n := range rowLengths {
		for range 6 {
			p := word(n, 2+rng.IntN(6))
			items[near] = string(p)
			if n > 0 {
				p[rng.IntN(n)] ^= 0x80
			}
			items[near+1] = string(p)
			EditRow(items[near], items, ids, out)
			for i, id := range ids {
				if want := editReference(items[id], items[near]); out[i] != want {
					t.Fatalf("EditRow(%q, …)[%d] over %q = %v, reference %v", items[near], i, items[id], out[i], want)
				}
			}
		}
	}
}

// TestEditRowLanesAgainstReference runs EditRow over words of 1 to 70
// bytes, so the four texts of one group end at different columns and
// points fall either side of the 64-byte seam, in rows of every length
// mod 4 and in random order: a text swept in another text's lane, or a
// remainder not swept, gives a wrong distance here without fuzzing.
func TestEditRowLanesAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 4))
	words := dataset.Words(rng, 400, dataset.WordOptions{MinLen: 1, MaxLen: 70, MisspellingsPer: 2})
	out := make([]float64, 0, len(words))
	for trial := range 60 {
		p := words[rng.IntN(len(words))]
		ids := make([]int32, 40+trial%4+rng.IntN(8)*4)
		for i := range ids {
			ids[i] = int32(rng.IntN(len(words)))
		}
		out = out[:len(ids)]
		EditRow(p, words, ids, out)
		for i, id := range ids {
			if want := editReference(words[id], p); out[i] != want {
				t.Fatalf("EditRow(%q, …)[%d] of %d over %q = %v, reference %v", p, i, len(ids), words[id], out[i], want)
			}
		}
	}
}
