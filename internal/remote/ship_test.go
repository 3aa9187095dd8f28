package remote

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/randx"
	"repro/internal/shard"
)

// newTestServer serves an already-built worker (tests that need a custom
// router config build their own instead of going through newWorker).
func newTestServer(t testing.TB, w *Worker) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(w)
	t.Cleanup(ts.Close)
	return ts
}

// chunkedTable builds a deterministic multi-chunk table at the minimum chunk
// capacity (64 rows per chunk): numeric columns with a planted shift on the
// selection plus one categorical with NULLs.
func chunkedTable(t testing.TB, seed uint64, rows int) (*frame.Frame, *frame.Bitmap) {
	t.Helper()
	f, err := frame.NewChunked(fmt.Sprintf("ct%d", seed), chunkedCols(seed, 0, rows), 64)
	if err != nil {
		t.Fatal(err)
	}
	sel := frame.NewBitmap(rows)
	for i := 0; i < rows/3; i++ {
		sel.Set(i)
	}
	return f, sel
}

// chunkedCols builds the column set for rows [lo, lo+n) of the seed's
// infinite deterministic table, so a tail built separately appends cleanly.
func chunkedCols(seed uint64, lo, n int) []*frame.Column {
	cols := make([]*frame.Column, 0, 4)
	for c := 0; c < 3; c++ {
		rng := randx.New(seed*31 + uint64(c))
		vals := make([]float64, lo+n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
			if i%17 == 0 {
				vals[i] += 2.5
			}
		}
		cols = append(cols, frame.NewNumericColumn(fmt.Sprintf("c%d", c), vals[lo:]))
	}
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("g%d", (lo+i)%3)
	}
	return append(cols, frame.NewCategoricalColumn("grp", labels))
}

// appendRows extends a chunked table by n rows of its own deterministic
// continuation, preserving the chunk capacity.
func appendRows(t testing.TB, f *frame.Frame, seed uint64, n int) *frame.Frame {
	t.Helper()
	tail, err := frame.NewChunked(f.Name(), chunkedCols(seed, f.NumRows(), n), f.ChunkRows())
	if err != nil {
		t.Fatal(err)
	}
	grown, err := f.Append(tail)
	if err != nil {
		t.Fatal(err)
	}
	return grown
}

// TestAssembleLeavesBaseValidWordsUnchanged pins the single validity array
// across the transport: a reassembled successor adopts a capacity-capped
// prefix of the resident base's words, so sealing its streamed chunks —
// including the rows of the base's trailing partial chunk — must copy
// rather than write into the base's array.
func TestAssembleLeavesBaseValidWordsUnchanged(t *testing.T) {
	for _, rows := range []int{200, 300} { // partial last chunks
		base, _ := chunkedTable(t, 5, rows)
		want := make([][]uint64, base.NumCols())
		for i := range want {
			want[i] = append([]uint64(nil), base.ColumnValidWords(i)...)
		}
		src, _ := chunkedTable(t, 5, rows)
		grown := appendRows(t, src, 5, 64)
		m := BuildManifest(grown)
		prefix := matchPrefix(m, base)
		if prefix != rows/64 {
			t.Fatalf("rows=%d: resident prefix %d chunks, want %d", rows, prefix, rows/64)
		}
		payloads, err := ExtractChunks(grown, []ChunkRange{{Start: prefix, End: m.NumChunks()}})
		if err != nil {
			t.Fatal(err)
		}
		nf, err := AssembleFrame(m, base, prefix, payloads)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got, exp := nf.ColumnValidWords(i), grown.ColumnValidWords(i); !slices.Equal(got, exp) {
				t.Errorf("rows=%d col %d: reassembled validity words %x, want %x", rows, i, got, exp)
			}
			if got := base.ColumnValidWords(i); !slices.Equal(got, want[i]) {
				t.Errorf("rows=%d col %d: base validity words changed by assembly: %x, want %x", rows, i, got, want[i])
			}
		}
	}
}

// TestAppendShipsOnlyNewChunks is the acceptance pin of the delta transport:
// appending ≤10% of rows to an already-shipped table re-registers by
// shipping only the new chunks — wire bytes proportional to the delta, not
// the table — and the worker's reassembled table characterizes
// byte-identically to a local engine.
func TestAppendShipsOnlyNewChunks(t *testing.T) {
	const baseRows, tailRows = 640, 64 // 10 full chunks + 1 appended chunk
	base, _ := chunkedTable(t, 3, baseRows)
	grown := appendRows(t, base, 3, tailRows)
	sel := frame.NewBitmap(grown.NumRows())
	for i := 0; i < grown.NumRows()/3; i++ {
		sel.Set(i)
	}

	w, ts := newWorker(t, 1)
	c := NewClient(ts.URL)

	if err := c.RegisterTable(base); err != nil {
		t.Fatal(err)
	}
	cold := c.Snapshot()
	if cold.TablesShipped != 1 || cold.ChunksShipped != int64(base.NumChunks()) {
		t.Fatalf("cold ship counters = %d tables / %d chunks, want 1 / %d",
			cold.TablesShipped, cold.ChunksShipped, base.NumChunks())
	}

	if err := c.RegisterTable(grown); err != nil {
		t.Fatal(err)
	}
	warm := c.Snapshot()
	deltaChunks := warm.ChunksShipped - cold.ChunksShipped
	deltaBytes := warm.BytesShipped - cold.BytesShipped
	if deltaChunks != 1 {
		t.Errorf("append shipped %d chunks, want exactly the 1 new chunk", deltaChunks)
	}
	// The delta ship pays one manifest (metadata, O(chunks)) plus one chunk
	// (cells, O(delta rows)); re-shipping the whole table would cost ~11× the
	// cold chunk bytes. A quarter of the cold total is a loose ceiling that
	// fails loudly if the suffix computation ever regresses to full blobs.
	if deltaBytes <= 0 || deltaBytes >= cold.BytesShipped/4 {
		t.Errorf("append shipped %d bytes (cold ship %d); want o(table size)", deltaBytes, cold.BytesShipped)
	}
	if w.NumTables() != 2 {
		t.Errorf("worker holds %d tables, want both versions", w.NumTables())
	}

	// The reassembled-from-prefix table answers byte-identically to a local
	// engine characterizing the sender's frame.
	remoteRep, err := c.Characterize(grown, sel, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := shard.NewWithParams(testConfig(1), nil, shard.Params{})
	if err != nil {
		t.Fatal(err)
	}
	localRep, err := local.Characterize(grown, sel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(core.EncodeContent(remoteRep), core.EncodeContent(localRep)) {
		t.Error("report from the chunk-assembled remote table diverged from the local engine")
	}
}

// TestAppendShipDeterminism extends the topology acceptance sweep to
// delta-shipped tables: after the base version ships, the appended version's
// reports are byte-identical across local, remote, and mixed topologies for
// shard counts 1, 2 and 4 — the reassembled frame is provably the sender's.
func TestAppendShipDeterminism(t *testing.T) {
	base, _ := chunkedTable(t, 5, 320)
	grown := appendRows(t, base, 5, 64)
	baseSel := frame.NewBitmap(base.NumRows())
	sel := frame.NewBitmap(grown.NumRows())
	for i := 0; i < grown.NumRows()/3; i++ {
		sel.Set(i)
		if i < base.NumRows() {
			baseSel.Set(i)
		}
	}

	refRouter, err := shard.NewWithParams(testConfig(1), nil, shard.Params{})
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := refRouter.Characterize(grown, sel)
	if err != nil {
		t.Fatal(err)
	}
	reference := core.EncodeContent(refRep)

	for _, shards := range []int{1, 2, 4} {
		topologies := map[string]*shard.Router{}

		local, err := shard.NewWithParams(testConfig(shards), nil, shard.Params{})
		if err != nil {
			t.Fatal(err)
		}
		topologies["local"] = local

		_, ts := newWorker(t, shards)
		remoteRouter, err := shard.NewWithBackends(testConfig(shards), nil,
			[]shard.Backend{NewClient(ts.URL)})
		if err != nil {
			t.Fatal(err)
		}
		topologies["remote"] = remoteRouter

		eng, err := shard.NewEngineBackend(testConfig(1), nil, shard.Params{})
		if err != nil {
			t.Fatal(err)
		}
		_, ts2 := newWorker(t, shards)
		mixed, err := shard.NewWithBackends(testConfig(shards), nil,
			[]shard.Backend{eng, NewClient(ts2.URL)})
		if err != nil {
			t.Fatal(err)
		}
		topologies["mixed"] = mixed

		for name, router := range topologies {
			// Ship and query the base first so the appended version arrives
			// over the delta path wherever a remote backend is involved.
			if _, err := router.Characterize(base, baseSel); err != nil {
				t.Fatalf("shards=%d %s base: %v", shards, name, err)
			}
			rep, err := router.Characterize(grown, sel)
			if err != nil {
				t.Fatalf("shards=%d %s: %v", shards, name, err)
			}
			if !bytes.Equal(core.EncodeContent(rep), reference) {
				t.Errorf("shards=%d %s: delta-shipped report diverged from the in-process reference", shards, name)
			}
			router.Close()
		}
	}
}

// TestPartialStoreHeal pins the heal path when the worker's bounded table
// store evicted the queried version but kept an older one: the client's 404
// recovery renegotiates, the worker finds the surviving version as a prefix,
// and only the suffix re-crosses the wire.
func TestPartialStoreHeal(t *testing.T) {
	cfg := testConfig(1)
	cfg.CacheEntries = 2 // table store holds two versions
	router, err := shard.NewWithParams(cfg, nil, shard.Params{})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(router)
	ts := newTestServer(t, w)
	c := NewClient(ts.URL)

	v1, sel1 := chunkedTable(t, 7, 320) // 5 chunks
	v2 := appendRows(t, v1, 7, 64)      // 6 chunks
	sel2 := frame.NewBitmap(v2.NumRows())
	for i := 0; i < v2.NumRows()/3; i++ {
		sel2.Set(i)
	}

	if err := c.RegisterTable(v1); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTable(v2); err != nil {
		t.Fatal(err)
	}
	// Touch v1 so v2 is the LRU victim, then push it out with an unrelated
	// table.
	if _, err := c.Characterize(v1, sel1, core.Options{}); err != nil {
		t.Fatal(err)
	}
	other, _ := chunkedTable(t, 8, 64)
	if err := c.RegisterTable(other); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.table(v2.Fingerprint()); ok {
		t.Fatal("v2 still resident; the eviction setup is wrong")
	}

	before := c.Snapshot()
	rep, err := c.Characterize(v2, sel2, core.Options{})
	if err != nil {
		t.Fatalf("characterize after eviction did not heal: %v", err)
	}
	after := c.Snapshot()
	if d := after.ChunksShipped - before.ChunksShipped; d != 1 {
		t.Errorf("heal re-shipped %d chunks; the resident v1 prefix should leave only 1", d)
	}
	if after.TablesShipped-before.TablesShipped != 1 {
		t.Errorf("heal ship counters = %+v", after)
	}

	// The healed table still answers byte-identically.
	local, err := shard.NewWithParams(testConfig(1), nil, shard.Params{})
	if err != nil {
		t.Fatal(err)
	}
	localRep, err := local.Characterize(v2, sel2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(core.EncodeContent(rep), core.EncodeContent(localRep)) {
		t.Error("healed report diverged from the local engine")
	}
}

// TestInvalidateFrameEndToEnd pins the invalidate RPC: the worker drops the
// fingerprint's derived report cache but keeps the stored table — it is the
// delta base the successor version wants — and the client forgets its
// shipped mark so a re-register renegotiates.
func TestInvalidateFrameEndToEnd(t *testing.T) {
	w, ts := newWorker(t, 1)
	c := NewClient(ts.URL)
	f, sel := chunkedTable(t, 9, 320)

	if err := c.RegisterTable(f); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Characterize(f, sel, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.CachedReport(f.Fingerprint(), sel, core.Options{}); !ok {
		t.Fatal("report cache cold after characterize")
	}

	c.InvalidateFrame(f.Fingerprint())
	if _, ok := c.CachedReport(f.Fingerprint(), sel, core.Options{}); ok {
		t.Error("worker report cache survived the invalidate")
	}
	if _, ok := w.table(f.Fingerprint()); !ok {
		t.Error("invalidate dropped the stored table; it must stay as the delta base")
	}

	// The superseding version delta-ships against the retained base.
	before := c.Snapshot()
	grown := appendRows(t, f, 9, 64)
	if err := c.RegisterTable(grown); err != nil {
		t.Fatal(err)
	}
	after := c.Snapshot()
	if d := after.ChunksShipped - before.ChunksShipped; d != 1 {
		t.Errorf("post-invalidate register shipped %d chunks, want 1 (retained base prefix)", d)
	}
}

// TestShippedSetIsBounded pins the client's shipped-set LRU: after far more
// registrations than the bound, an aged-out fingerprint costs one manifest
// renegotiation but zero chunk bytes when the worker still holds the table.
func TestShippedSetIsBounded(t *testing.T) {
	cfg := testConfig(1)
	cfg.CacheEntries = 512 // worker table store outlives the client's shipped set
	router, err := shard.NewWithParams(cfg, nil, shard.Params{})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(router)
	ts := newTestServer(t, w)
	c := NewClient(ts.URL)

	first, _ := testTable(t, 100)
	if err := c.RegisterTable(first); err != nil {
		t.Fatal(err)
	}
	entries, _ := core.DefaultConfig().EffectiveCacheBounds()
	for i := 0; i < entries+8; i++ {
		f, _ := testTable(t, 200+uint64(i))
		if err := c.RegisterTable(f); err != nil {
			t.Fatal(err)
		}
	}

	before := c.Snapshot()
	if err := c.RegisterTable(first); err != nil {
		t.Fatal(err)
	}
	after := c.Snapshot()
	if d := after.ChunksShipped - before.ChunksShipped; d != 0 {
		t.Errorf("aged-out shipped mark re-shipped %d chunks; the worker-resident table needs none", d)
	}
	if after.TablesShipped != before.TablesShipped {
		t.Errorf("renegotiation without chunks counted as a table ship")
	}
	if d := after.BytesShipped - before.BytesShipped; d <= 0 {
		t.Errorf("renegotiation shipped %d bytes, want one manifest's worth", d)
	}
}
