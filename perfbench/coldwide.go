package main

import (
	"fmt"
	"time"

	ziggy "repro"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/randx"
	"repro/internal/shard"
)

// cold_wide: the CLI user's first question about a table the engine has
// never seen, closed loop with one client.
const (
	wideRows = 4000
	// wideOpsPerSecond sets the fixed operation count, ops =
	// wideOpsPerSecond × --seconds (100 at 20 s, so fresh_p90_ms has 100
	// samples); an operation took about 0.1 s on a 2-core Xeon, go1.24.
	wideOpsPerSecond = 5
	// wideSetupReps: set-up is short here, so it is repeated more often
	// than elsewhere before its median is taken.
	wideSetupReps = 9
)

// wideShape: 128 columns, 12 categorical and 13 numeric ones with 5%
// NULLs.
var wideShape = tableShape{cols: 128, catEvery: 10, nullEvery: 10, nullRate: 0.05, chunkRows: 4096}

// wideConfig pins the engine and admission values; Robust puts the
// rank-based statistics (stats.Ranking) on the path.
func wideConfig() (core.Config, shard.Params) {
	cfg := core.DefaultConfig()
	cfg.Parallelism = 2
	cfg.Shards = 1
	cfg.Robust = true
	cfg.CacheEntries = core.DefaultCacheEntries
	cfg.CacheBytes = core.DefaultCacheBytes
	cfg.ApproxRows = core.DefaultApproxRows
	return cfg, shard.Params{Concurrency: shard.DefaultConcurrency, QueueDepth: shard.DefaultQueueDepth}
}

// wideInput is one operation's generated table and selection.
type wideInput struct {
	f   *frame.Frame
	sql string
}

// wideInputs generates operation i's input from the seed and the index
// alone, so it can be regenerated for the reference.
func wideInputs(seed uint64, i int, minRows int) wideInput {
	r := randx.New(seed ^ 0x77696465 ^ uint64(i)*0x9e3779b97f4a7c15)
	f := genRows("wide", wideShape, r.Uint64(), wideRows)
	return wideInput{f: f, sql: newRangeGen(f, minRows).next(r)}
}

// hash adds operation i's input to the schedule hash.
func (w wideInput) hash(h *scheduleHasher, i int) {
	h.add("op %d fp=%x %s", i, w.f.Fingerprint(), w.sql)
}

// buildWide builds the session: ziggy.New over one in-process engine
// shard with pinned admission, warmed by one untimed operation.
func buildWide(seed uint64, tr *tracer) (*ziggy.Session, []*tracedBackend, error) {
	cfg, params := wideConfig()
	reports := core.NewReportCache(cfg.CacheEntries, cfg.CacheBytes)
	eb, err := shard.NewEngineBackend(cfg, reports, params)
	if err != nil {
		return nil, nil, err
	}
	backends := []shard.Backend{eb}
	var traced []*tracedBackend
	if tr != nil {
		backends, traced = traceBackends(tr, backends)
	}
	sess, err := ziggy.New(cfg, ziggy.WithSharedCache(reports), ziggy.WithBackends(backends...))
	if err != nil {
		return nil, nil, err
	}
	in := wideInputs(seed, -1, cfg.MinRows)
	if err := sess.Register(in.f); err != nil {
		return nil, nil, err
	}
	if _, err := sess.Characterize(in.sql); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	sess.Unregister(in.f.Name())
	return sess, traced, nil
}

func runColdWide(env *runEnv) (*outcome, error) {
	cfg, _ := wideConfig()
	out := &outcome{}
	var sess *ziggy.Session
	var traced []*tracedBackend
	for i := 0; i < env.setupReps; i++ {
		if sess != nil {
			sess.Close()
		}
		t0 := time.Now()
		var err error
		if sess, traced, err = buildWide(env.seed, env.tr); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0))
	}
	defer sess.Close()

	n := wideOpsPerSecond * env.seconds
	var h scheduleHasher
	var in *layerInputs
	var side *sideReplays
	if env.tr != nil {
		in = &layerInputs{}
		side = &sideReplays{tr: env.tr, measure: cfg.Measure, linkage: cfg.Linkage, workers: cfg.Parallelism}
	}
	before := readCounters(sess.Router())
	env.tr.arm()
	ph := startPhase()
	for i := 0; i < n; i++ {
		ph.pause()
		w := wideInputs(env.seed, i, cfg.MinRows)
		w.hash(&h, i)
		exclude, err := ziggy.PredicateColumns(w.sql)
		if err != nil {
			ph.end()
			return nil, err
		}
		table := fmt.Sprintf("wide#%d", i)
		ph.resume()

		// The first question: register, then characterize (fresh); then
		// ask it again (repeat).
		for _, k := range []kind{fresh, repeat} {
			o := op{kind: k, q: query{table: table, sql: w.sql}}
			req, t0 := env.tr.newID(), time.Now()
			if k == fresh {
				o.err = sess.Register(w.f)
			}
			var qr *ziggy.QueryReport
			if o.err == nil {
				qr, o.err = sess.CharacterizeOpts(w.sql, core.Options{ExcludeColumns: exclude})
			}
			o.lat = time.Since(t0)
			if o.err == nil {
				sessionAnswer(&o, qr.Report)
			}
			if env.tr != nil && o.err == nil {
				ph.pause()
				env.tr.add(span{id: env.tr.newID(), req: req, name: "op." + k.String(), start: env.tr.at(t0), end: env.tr.at(t0.Add(o.lat)),
					key: spanKey{qr.Base.Fingerprint(), qr.Mask.Fingerprint()}})
				stageTimes(in, qr.Report)
				side.query(sess, w.sql)
				if k == fresh {
					side.prepare(w.f)
				}
				ph.resume()
			}
			out.ops = append(out.ops, o)
		}
		ph.pause()
		sess.Unregister(w.f.Name())
		ph.resume()
	}
	out.phase = ph.end()
	env.tr.disarm()
	after := readCounters(sess.Router())
	out.scheduleHash = h.sum()
	out.repeatShare = shareOf(out.ops, repeat)
	rb, ra := before.router.Reports, after.router.Reports
	out.reportHitRatio = ratio(float64(ra.Hits-rb.Hits), float64(ra.Requests()-rb.Requests()))

	ref, err := newSessionReference(cfg, func(q query) (*frame.Frame, error) {
		var i int
		if _, err := fmt.Sscanf(q.table, "wide#%d", &i); err != nil {
			return nil, err
		}
		return wideInputs(env.seed, i, cfg.MinRows).f, nil
	})
	if err != nil {
		return nil, err
	}
	if err := verify(out.ops, env.cached(ref.reference)); err != nil {
		return nil, err
	}
	if env.tr != nil {
		in.ops, in.before, in.after, in.phase = len(out.ops), before, after, out.phase
		in.spans = env.tr.snapshot()
		side.fill(in)
		join(in.spans)
		in.probes, in.hits, in.waits = backendTotals(traced)
		out.layers, out.spans = layerMetrics(*in), in.spans
	}
	return out, nil
}
