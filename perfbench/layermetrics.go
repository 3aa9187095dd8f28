package main

import (
	"fmt"

	ziggy "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/depend"
	"repro/internal/frame"
	"repro/internal/shard"
	"repro/internal/stats"
)

// counters is a reading of the program's process-wide work meters and the
// router's snapshot; the per-layer counts are deltas between two readings
// taken around the timed phase.
type counters struct {
	rankOps, chunkScans int64
	router              shard.Stats
}

func readCounters(r *shard.Router) counters {
	return counters{rankOps: stats.RankOps(), chunkScans: frame.ChunkScans(), router: r.Stats()}
}

// shardSums adds up the per-shard counters of one snapshot.
type shardSums struct {
	rejected, approx, bytes, chunks int64
}

func sumShards(s shard.Stats) shardSums {
	var t shardSums
	for _, sh := range s.Shards {
		t.rejected += sh.Rejected
		t.approx += sh.ApproxServed
		t.bytes += sh.BytesShipped
		t.chunks += sh.ChunksShipped
	}
	return t
}

// layerInputs is what a traced workload hands to layerMetrics. Fields a
// workload does not exercise stay zero, and so do their metrics: every
// workload reports the same metric names.
type layerInputs struct {
	spans         []span // joined
	ops, appends  int
	before, after counters
	phase         phaseResult
	// remote is set when the router's backends are remote workers: the
	// shard decorator's spans are then the RPC spans.
	remote bool

	probes, hits int
	waits        []float64 // admission wait per characterize, ms
	responseKB   []float64
	workerRPCs   int

	// Engine stage times read from the answers (ms): preparation on
	// prepared-cache misses and hits, search and post-processing of every
	// computed (not report-cached) answer.
	prep, split, search, post []float64

	// Side replays.
	dbQuery, dbRows     []float64
	matrix, agglomerate []float64
	pairs, nullPairs    int
	lagP90              float64
}

// spanDurations returns the durations (ms) of the spans with the given name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// spanSelf returns the self times (ms) of the spans with the given name.
func spanSelf(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, ms(self[s.id]))
		}
	}
	return out
}

// layerMetrics computes every per-layer metric.
func layerMetrics(in layerInputs) *layerReport {
	r := newLayerReport()
	sp := in.spans
	ops, apps := float64(in.ops), float64(in.appends)
	remoteOnly := func(xs []float64) []float64 {
		if in.remote {
			return xs
		}
		return nil
	}
	localOnly := func(xs []float64) []float64 {
		if in.remote {
			return nil
		}
		return xs
	}

	r.setPercentile("server.handle_p50_ms", spanDurations(sp, "server.handle"), 0.5)
	r.setPercentile("server.self_p50_ms", spanSelf(sp, "server.handle"), 0.5)
	r.setPercentile("server.client_overhead_p50_ms", spanSelf(sp, "client.request"), 0.5)
	r.set("server.response_kb_mean", mean(in.responseKB), "KiB", fmt.Sprintf("(n=%d)", len(in.responseKB)))

	r.setPercentile("db.query_p50_ms", in.dbQuery, 0.5)
	r.setPercentile("db.query_p90_ms", in.dbQuery, 0.9)
	r.set("db.rows_materialized_mean", mean(in.dbRows), "rows", fmt.Sprintf("(n=%d, side replay)", len(in.dbRows)))

	probes := spanDurations(sp, "shard.probe")
	chars := spanDurations(sp, "shard.characterize")
	r.setPercentile("shard.probe_p50_ms", probes, 0.5)
	r.setRatio("shard.probe_hit_ratio", float64(in.hits), float64(in.probes), "ratio")
	r.setPercentile("shard.characterize_p50_ms", chars, 0.5)
	r.setPercentile("shard.admission_wait_p90_ms", localOnly(in.waits), 0.9)
	b, a := sumShards(in.before.router), sumShards(in.after.router)
	r.set("shard.rejected", float64(a.rejected-b.rejected), "count", "(ShardSnapshot delta)")
	r.set("shard.approx_served", float64(a.approx-b.approx), "count", "(ShardSnapshot delta)")

	rb, ra := in.before.router.Totals(), in.after.router.Totals()
	r.setRatio("memo.report_hit_ratio", float64(ra.Reports.Hits-rb.Reports.Hits), float64(ra.Reports.Requests()-rb.Reports.Requests()), "ratio")
	r.set("memo.report_evictions", float64(ra.Reports.Evictions-rb.Reports.Evictions), "count", "(report tier delta)")
	r.setRatio("memo.prepared_hit_ratio", float64(ra.Prepared.Hits-rb.Prepared.Hits), float64(ra.Prepared.Requests()-rb.Prepared.Requests()), "ratio")

	r.setPercentile("core.prep_p50_ms", in.prep, 0.5)
	r.setPercentile("core.split_p50_ms", in.split, 0.5)
	r.setPercentile("core.search_p50_ms", in.search, 0.5)
	r.setPercentile("core.post_p50_ms", in.post, 0.5)

	r.setPercentile("depend.matrix_p50_ms", in.matrix, 0.5)
	r.setRatio("depend.pairs_per_op", float64(in.pairs), ops, "pairs")
	r.setRatio("depend.null_pair_share", float64(in.nullPairs), float64(in.pairs), "ratio")
	r.setPercentile("cluster.agglomerate_p50_ms", in.agglomerate, 0.5)
	r.setRatio("stats.rank_ops_per_op", float64(in.after.rankOps-in.before.rankOps), ops, "count")

	r.setPercentile("frame.append_p50_ms", spanDurations(sp, "frame.append"), 0.5)
	r.setRatio("frame.chunk_scans_per_append", float64(in.after.chunkScans-in.before.chunkScans), apps, "count")

	r.setPercentile("remote.register_p50_ms", remoteOnly(spanDurations(sp, "shard.register")), 0.5)
	r.setPercentile("remote.manifest_p50_ms", spanDurations(sp, "remote.worker.manifest"), 0.5)
	r.setPercentile("remote.chunks_p50_ms", spanDurations(sp, "remote.worker.chunks"), 0.5)
	r.setPercentile("remote.characterize_rpc_p50_ms", remoteOnly(chars), 0.5)
	r.setPercentile("remote.worker_characterize_p50_ms", spanDurations(sp, "remote.worker.characterize"), 0.5)
	r.setPercentile("remote.cached_rpc_p50_ms", remoteOnly(probes), 0.5)
	r.setRatio("remote.bytes_shipped_per_append", float64(a.bytes-b.bytes), apps, "bytes")
	r.setRatio("remote.chunks_shipped_per_append", float64(a.chunks-b.chunks), apps, "count")
	r.setRatio("remote.rpcs_per_op", float64(in.workerRPCs), ops, "count")

	r.setRatio("go.alloc_mb_per_op", float64(in.phase.Alloc)/(1<<20), ops, "MiB")
	r.setRatio("go.gc_cycles_per_op", float64(in.phase.GCCycles), ops, "count")
	r.set("go.gc_pause_ms_total", ms(in.phase.GCPause), "ms", "(MemStats delta)")

	r.set("bench.generator_lag_p90_ms", in.lagP90, "ms", "(open loop only)")
	return r
}

// sideReplays collects the traced run's replays of layers with no
// wrapper-visible boundary, made with the timed phase paused.
type sideReplays struct {
	tr      *tracer
	measure depend.Measure
	linkage cluster.Linkage
	workers int

	spans               []span
	dbQuery, dbRows     []float64
	matrix, agglomerate []float64
	pairs, nullPairs    int
}

// query replays the SQL selection on the session's current table version.
func (s *sideReplays) query(sess *ziggy.Session, sql string) {
	start := s.tr.now()
	rows, _, err := sess.Query(sql)
	end := s.tr.now()
	if err != nil {
		return
	}
	s.spans = append(s.spans, span{id: s.tr.newID(), name: "db.query", start: start, end: end, replay: true})
	s.dbQuery = append(s.dbQuery, ms(end-start))
	s.dbRows = append(s.dbRows, float64(rows.NumRows()))
}

// prepare replays the preparation a prepared-cache miss on f computed: the
// dependency matrix at the pinned parallelism, then the dendrogram. Pair
// counts come from the input: every column pair, and those a NULL-bearing
// numeric column sends down the gathered fallback.
func (s *sideReplays) prepare(f *frame.Frame) {
	start := s.tr.now()
	dep := depend.NewMatrixParallel(f, s.measure, s.workers)
	mid := s.tr.now()
	_, err := cluster.Agglomerate(dep.Distances(), f.NumCols(), s.linkage)
	end := s.tr.now()
	s.spans = append(s.spans,
		span{id: s.tr.newID(), name: "depend.matrix", start: start, end: mid, replay: true},
		span{id: s.tr.newID(), name: "cluster.agglomerate", start: mid, end: end, replay: true})
	s.matrix = append(s.matrix, ms(mid-start))
	if err == nil {
		s.agglomerate = append(s.agglomerate, ms(end-mid))
	}
	var numeric, nullable int
	for _, c := range f.Columns() {
		if c.Kind() == frame.Numeric {
			numeric++
			if c.NullCount() > 0 {
				nullable++
			}
		}
	}
	n := f.NumCols()
	s.pairs += n * (n - 1) / 2
	// Numeric pairs with at least one NULL-bearing side.
	s.nullPairs += numeric*(numeric-1)/2 - (numeric-nullable)*(numeric-nullable-1)/2
}

// fill copies the replays into the layer inputs.
func (s *sideReplays) fill(in *layerInputs) {
	in.spans = append(in.spans, s.spans...)
	in.dbQuery, in.dbRows = s.dbQuery, s.dbRows
	in.matrix, in.agglomerate = s.matrix, s.agglomerate
	in.pairs, in.nullPairs = s.pairs, s.nullPairs
}

// stageTimes records a computed report's engine stage times.
func stageTimes(in *layerInputs, rep *core.Report) {
	if rep.ReportCacheHit {
		return
	}
	if rep.CacheHit {
		in.split = append(in.split, ms(rep.Timings.Preparation))
	} else {
		in.prep = append(in.prep, ms(rep.Timings.Preparation))
	}
	in.search = append(in.search, ms(rep.Timings.Search))
	in.post = append(in.post, ms(rep.Timings.Post))
}
