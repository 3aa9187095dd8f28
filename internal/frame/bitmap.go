package frame

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Bitmap is a fixed-length bitset over row indices. It is the selection
// vector produced by the SQL layer and consumed by the Ziggy engine to split
// columns into inside/outside parts.
type Bitmap struct {
	words []uint64
	n     int
	// fp caches the content fingerprint (0 = not computed) and gen counts
	// mutation events. Every mutating method calls invalidate both before
	// and after touching words, and Fingerprint only keeps a published hash
	// if gen did not advance around the computation, so a mutation racing an
	// in-flight Fingerprint can never leave a stale hash cached. See
	// fingerprint.go.
	fp  atomic.Uint64
	gen atomic.Uint64
}

// invalidate drops the cached fingerprint and records a mutation event.
// Mutators call it on both sides of the word write: the leading call keeps
// sequential readers from seeing a pre-mutation hash, the trailing call
// advances gen past any hash computed while the words were changing (and
// its fp.Store(0) clears one that was already published). The gen bump
// precedes the fp clear so Fingerprint's post-publish recheck pairs with it.
func (b *Bitmap) invalidate() {
	b.gen.Add(1)
	b.fp.Store(0)
}

// NewBitmap returns an all-clear bitmap over n rows.
func NewBitmap(n int) *Bitmap {
	if n < 0 {
		panic("frame: negative bitmap length")
	}
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// BitmapFromBools builds a bitmap from a boolean slice. The words are
// filled before the bitmap exists, so no per-bit fingerprint invalidation
// is paid.
func BitmapFromBools(vals []bool) *Bitmap {
	words := make([]uint64, (len(vals)+63)/64)
	for i, v := range vals {
		if v {
			words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return &Bitmap{words: words, n: len(vals)}
}

// BitmapFromIndices builds a bitmap over n rows with the given indices set.
// It panics on an index outside [0, n), as Set does.
func BitmapFromIndices(n int, idx []int) *Bitmap {
	b := NewBitmap(n)
	for _, i := range idx {
		b.checkIndex(i)
		b.words[i>>6] |= 1 << (uint(i) & 63)
	}
	return b
}

// Len returns the number of rows the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

func (b *Bitmap) checkIndex(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("frame: bitmap index %d out of range [0,%d)", i, b.n))
	}
}

// Set marks row i as selected.
func (b *Bitmap) Set(i int) {
	b.checkIndex(i)
	b.invalidate()
	b.words[i>>6] |= 1 << (uint(i) & 63)
	b.invalidate()
}

// Clear unmarks row i.
func (b *Bitmap) Clear(i int) {
	b.checkIndex(i)
	b.invalidate()
	b.words[i>>6] &^= 1 << (uint(i) & 63)
	b.invalidate()
}

// Get reports whether row i is selected.
func (b *Bitmap) Get(i int) bool {
	b.checkIndex(i)
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of selected rows.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// SetAll selects every row.
func (b *Bitmap) SetAll() {
	b.invalidate()
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
	b.invalidate()
}

// trim clears the unused high bits of the last word so Count and Not stay
// correct.
func (b *Bitmap) trim() {
	if rem := uint(b.n) & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}

// Clone returns a deep copy, carrying over the cached fingerprint (the
// contents are identical, so the hash is too).
func (b *Bitmap) Clone() *Bitmap {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	nb := &Bitmap{words: w, n: b.n}
	nb.fp.Store(b.fp.Load())
	return nb
}

func (b *Bitmap) checkSame(o *Bitmap) {
	if b.n != o.n {
		panic(fmt.Sprintf("frame: bitmap length mismatch %d vs %d", b.n, o.n))
	}
}

// And intersects b with o in place and returns b.
func (b *Bitmap) And(o *Bitmap) *Bitmap {
	b.checkSame(o)
	b.invalidate()
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
	b.invalidate()
	return b
}

// Or unions b with o in place and returns b.
func (b *Bitmap) Or(o *Bitmap) *Bitmap {
	b.checkSame(o)
	b.invalidate()
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
	b.invalidate()
	return b
}

// AndNot removes o's rows from b in place and returns b.
func (b *Bitmap) AndNot(o *Bitmap) *Bitmap {
	b.checkSame(o)
	b.invalidate()
	for i := range b.words {
		b.words[i] &^= o.words[i]
	}
	b.invalidate()
	return b
}

// Not complements b in place and returns b.
func (b *Bitmap) Not() *Bitmap {
	b.invalidate()
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.trim()
	b.invalidate()
	return b
}

// Words returns a copy of the backing 64-bit words (row i lives at bit i&63
// of word i>>6; unused high bits of the last word are zero). Together with
// BitmapFromWords it is the exact wire representation of a selection: the
// remote serving layer round-trips bitmaps through it without touching the
// per-row API, and the reconstructed bitmap fingerprints identically.
func (b *Bitmap) Words() []uint64 {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return w
}

// WordCount returns the number of backing words.
func (b *Bitmap) WordCount() int { return len(b.words) }

// WordAt returns backing word i without copying (row r lives at bit r&63
// of word r>>6; unused high bits of the last word are zero). Hot loops —
// the engine's column splits, the dependency matrix's complete-case
// gathers — iterate selection words directly with bits.TrailingZeros64
// instead of calling Get per row. The caller must not mutate the bitmap
// while iterating.
func (b *Bitmap) WordAt(i int) uint64 { return b.words[i] }

// BitmapFromWords rebuilds a bitmap over n rows from its Words
// representation. The word count must match exactly; set bits beyond n are
// rejected rather than trimmed, so a corrupted wire payload cannot silently
// change the selection it decodes to.
func BitmapFromWords(n int, words []uint64) (*Bitmap, error) {
	if n < 0 {
		return nil, fmt.Errorf("frame: negative bitmap length %d", n)
	}
	if want := (n + 63) / 64; len(words) != want {
		return nil, fmt.Errorf("frame: bitmap over %d rows needs %d words, got %d", n, want, len(words))
	}
	if rem := uint(n) & 63; rem != 0 && words[len(words)-1]&^((1<<rem)-1) != 0 {
		return nil, fmt.Errorf("frame: bitmap words have bits set beyond row %d", n)
	}
	w := make([]uint64, len(words))
	copy(w, words)
	return &Bitmap{words: w, n: n}, nil
}

// ForEach calls fn for every selected row index in ascending order.
func (b *Bitmap) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + tz)
			w &= w - 1
		}
	}
}

// Indices returns the selected row indices in ascending order.
func (b *Bitmap) Indices() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Equal reports whether b and o select exactly the same rows.
func (b *Bitmap) Equal(o *Bitmap) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// String renders a short diagnostic form.
func (b *Bitmap) String() string {
	return fmt.Sprintf("Bitmap(%d/%d)", b.Count(), b.n)
}
