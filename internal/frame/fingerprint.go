package frame

import (
	"repro/internal/memo"
)

// Content fingerprints turn frames and selection bitmaps into cheap value
// keys for the memoization layer (internal/memo): two frames with the same
// schema and cell contents fingerprint identically even when they are
// distinct objects — reloading a CSV or regenerating a synthetic table hits
// the caches a pointer-keyed map would miss. The hash is memo.Hasher
// (FNV-1a) over a canonical serialization (schema, then per-column payload
// chains), chosen for determinism and zero allocation; 64 bits is ample for
// the cache-key population of one process.
//
// Column payloads are hashed as per-column chains snapshotted at chunk
// boundaries (chunks.go): the frame fingerprint folds each column's
// chain-end state, which by construction equals the last chunk fingerprint
// — so the frame fingerprint is derived from the ordered chunk fingerprints
// yet independent of the chunk layout, and an append resumes the chains
// instead of rehashing the rows it kept.

// hashSum finalizes a content hasher. It is a package-level hook so tests
// can force the raw hash to collide with the cache sentinel; production
// code never replaces it.
var hashSum = func(h *memo.Hasher) uint64 { return h.Sum() }

// zeroHashFingerprint is the reserved fingerprint for content whose raw
// hash is 0.
const zeroHashFingerprint = 1

// sealFingerprint maps a raw content hash into the cacheable fingerprint
// domain: 0 — a legitimate 1-in-2⁶⁴ hash output — is remapped to a
// reserved non-zero value so it stays distinguishable from the "not yet
// computed" sentinel. Without the remap such content would rehash on every
// call and a published-then-invalidated 0 would be indistinguishable from
// never having hashed at all.
func sealFingerprint(raw uint64) uint64 {
	if raw == 0 {
		return zeroHashFingerprint
	}
	return raw
}

// Fingerprint returns the content fingerprint of the frame: a hash of the
// schema (column names, kinds, row count) and every cell, computed once and
// cached on the frame. Cell payloads enter through each column's sealed
// chunk chain (chunks.go): the fingerprint folds the chain state after the
// last row — the last chunk's fingerprint — so a frame built by Append
// hashes only the rows past the reused chunk prefix, and the value is
// identical for every chunk layout of the same content. Frames are
// immutable by convention; the fingerprint is not recomputed on its own, so
// code that mutates backing storage in place must either build a new Frame
// or call InvalidateFingerprint afterwards. The table name is deliberately
// excluded: a characterization depends only on the data, so identical
// tables registered under different names share cache entries.
func (f *Frame) Fingerprint() uint64 {
	if v := f.fp.Load(); v != 0 {
		return v
	}
	h := memo.NewHasher()
	h.Uint64(uint64(f.numRows))
	h.Uint64(uint64(len(f.cols)))
	for _, c := range f.cols {
		h.String(c.name)
		h.Uint64(uint64(c.kind))
		h.Uint64(c.sealChunks(f.chunkRows).last().chain)
		if c.kind == Categorical {
			// The dictionary is outside the chunk chain: it can grow on
			// append (rewriting history a prefix chain cannot absorb), and
			// it is small, so it hashes fresh here.
			h.Uint64(uint64(len(c.dict)))
			for _, s := range c.dict {
				h.String(s)
			}
		}
	}
	v := sealFingerprint(hashSum(&h))
	f.fp.Store(v)
	return v
}

// InvalidateFingerprint clears the cached fingerprint and every column's
// sealed chunk metadata so the next Fingerprint call rehashes the current
// cell contents. Code that mutates a frame's backing storage in place —
// against the immutability convention — must call this (alongside
// Engine.InvalidateCache) before characterizing the frame again; otherwise
// fresh results would be cached under the stale pre-mutation hash and could
// be served to a frame that genuinely has that content. It must not race
// with concurrent readers of the frame.
func (f *Frame) InvalidateFingerprint() {
	f.fp.Store(0)
	for _, c := range f.cols {
		c.seal.Store(nil)
	}
}

// Fingerprint returns the content fingerprint of the bitmap (length and set
// bits), computed once and cached on the bitmap. Bitmaps are mutable, so
// every mutating method (Set, Clear, SetAll, And, Or, AndNot, Not)
// invalidates the cached value and the next call rehashes the current bits —
// the sharded serving layer fingerprints the same selection on every request,
// so the O(rows/64) pass is paid once per distinct content instead of once
// per request.
//
// Callers must not mutate a bitmap while another goroutine fingerprints it
// (the words themselves are not atomic), but the cache is hardened against
// that misuse: mutators bump the generation counter on both sides of the
// word write, a hash is only published when the generation did not advance
// around the computation, and the publish rechecks the generation and
// retracts itself if a mutation slipped in between. A racing mutation can
// therefore produce one transiently wrong return value — as before caching —
// but never a permanently poisoned cache: once mutations quiesce, the next
// call rehashes the true content. Concurrent Fingerprint calls on an
// unchanging bitmap are safe.
func (b *Bitmap) Fingerprint() uint64 {
	gen := b.gen.Load()
	if v := b.fp.Load(); v != 0 {
		return v
	}
	h := memo.NewHasher()
	h.Uint64(uint64(b.n))
	for _, w := range b.words {
		h.Uint64(w)
	}
	v := sealFingerprint(hashSum(&h))
	if b.gen.Load() == gen {
		b.fp.Store(v)
		if b.gen.Load() != gen {
			// A mutation's trailing invalidate may have run between the
			// check and the store; retract the now-doubtful hash. The
			// mutator's gen bump precedes its fp clear, so whenever its
			// clear landed before our store, this recheck sees the bump.
			b.fp.Store(0)
		}
	}
	return v
}
