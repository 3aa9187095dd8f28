package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/frame"
	"repro/internal/randx"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/synth"
)

// explore_http: IDEBench-style independent explorers against the demo
// server (paper Figure 5) on loopback HTTP, open loop.
const (
	// exploreRate is the Poisson arrival rate in requests per second,
	// about 13% of the capacity measured with -capacity (two closed-loop
	// clients on the same schedule: 117 requests/s on a 2-core Xeon,
	// go1.24). At 60% of capacity (70/s) queueing behind 100 ms innovation
	// requests made every percentile depend on the arrival bursts: over
	// five seeds fresh_p50_ms spread by 0.57 and repeat_p90_ms by 0.33 of
	// their medians, more than any bound the benchmark may set; at 20/s
	// repeat_p90_ms still spread by 0.38 over ten seeds.
	exploreRate = 15.0
	// exploreFresh of every exploreBlock requests ask a new range
	// predicate; the rest repeat an earlier one, Zipf-skewed.
	exploreFresh, exploreBlock = 2, 5
	// exploreZipfS is the Zipf exponent over earlier queries, ranked by
	// first appearance: early queries stay hot, the tail is asked rarely
	// and falls out of the 128-entry report cache as the universe grows.
	exploreZipfS = 1.0
	// exploreHistory is the number of distinct queries earlier explorers
	// asked before the timed phase: they fill the report cache, so repeats
	// evict from the first timed request on and the miss share is steady.
	exploreHistory = 128
	// exploreClients bounds the load generator's goroutines and
	// connections (nproc on the reference machine).
	exploreClients = 2
	// lagLimitShare: a run whose generator lag p90 exceeds this share of
	// fresh_p50_ms is invalid — the generator, not the server, set the
	// pace. Quiet runs measure a lag p90 near 0.15 of fresh_p50_ms, runs
	// on a busy host up to 0.3.
	lagLimitShare = 0.5
)

// exploreDataSeed generates the demo datasets: they are the paper's fixed
// tables, and the explorers' queries are what the run seed varies.
const exploreDataSeed = 42

// exploreTables are the demo datasets, weighted toward the small ones.
// Requests draw their table from shuffled blocks holding each table weight
// times (10 requests), so every run has the same mix. Explorers revisit
// only the small tables: an innovation answer is asked once and ages out
// of the report cache. The weights keep each percentile inside one part
// of its latency distribution, away from the steps between parts:
// fresh_p50_ms in uscrime, fresh_p90_ms in innovation, repeat_p50_ms in
// uscrime report-cache hits, repeat_p90_ms in uscrime misses (about a
// quarter of repeats miss). With innovation repeats, its misses (100 ms,
// 3–6% of repeats) sat right above repeat_p90_ms and moved it by up to
// half from seed to seed.
var exploreTables = []struct {
	name          string
	fresh, repeat int // weights
	build         func(seed uint64) *frame.Frame
}{
	{"boxoffice", 3, 3, synth.BoxOffice},
	{"uscrime", 5, 7, synth.USCrime},
	{"innovation", 2, 0, synth.Innovation},
}

// exploreConfig pins every engine and admission value that would
// otherwise default from the machine; the rest are ziggyd's defaults.
func exploreConfig() (core.Config, shard.Params) {
	cfg := core.DefaultConfig()
	cfg.Parallelism = 1
	cfg.Shards = 2
	cfg.CacheEntries = core.DefaultCacheEntries
	cfg.CacheBytes = core.DefaultCacheBytes
	cfg.ApproxRows = core.DefaultApproxRows
	return cfg, shard.Params{Concurrency: shard.DefaultConcurrency, QueueDepth: shard.DefaultQueueDepth}
}

// exploreStack is the serving stack under test: catalog, router (built as
// ziggyd's default front builds it) and server on a loopback listener.
type exploreStack struct {
	catalog *db.Catalog
	router  *shard.Router
	traced  []*tracedBackend
	tables  []*frame.Frame
	srv     *http.Server
	url     string
	served  chan struct{}
}

func buildExplore(tr *tracer) (*exploreStack, error) {
	cfg, params := exploreConfig()
	st := &exploreStack{catalog: db.NewCatalog()}
	for _, t := range exploreTables {
		f := t.build(exploreDataSeed)
		st.tables = append(st.tables, f)
		if err := st.catalog.Register(f); err != nil {
			return nil, err
		}
	}
	router, err := shard.NewWithParams(cfg, nil, params)
	if err != nil {
		return nil, err
	}
	var handler http.Handler
	if tr != nil {
		backends := make([]shard.Backend, router.NumShards())
		for i := range backends {
			backends[i] = router.Backend(i)
		}
		wrapped, traced := traceBackends(tr, backends)
		if router, err = shard.NewWithBackends(cfg, router.ReportCache(), wrapped); err != nil {
			return nil, err
		}
		st.traced = traced
		handler = serverSpans(tr, server.New(st.catalog, router, nil))
	} else {
		handler = server.New(st.catalog, router, nil)
	}
	st.router = router
	// Prepare every table, leaving the report cache empty.
	r := randx.New(exploreDataSeed)
	for _, f := range st.tables {
		res, err := st.catalog.Query(newRangeGen(f, cfg.MinRows).next(r))
		if err != nil {
			return nil, err
		}
		if _, err := router.CharacterizeOpts(res.Base, res.Mask, core.Options{SkipReportCache: true}); err != nil {
			return nil, fmt.Errorf("warming %s: %w", f.Name(), err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv = &http.Server{Handler: handler}
	st.url = "http://" + ln.Addr().String() + "/api/characterize"
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		st.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return st, nil
}

func (st *exploreStack) close() {
	st.srv.Close()
	<-st.served
}

// exploreReq is one scheduled request.
type exploreReq struct {
	at   time.Duration // offset from the start of the timed phase
	kind kind
	q    query
}

// exploreSchedule draws the history of earlier explorers (distinct fresh
// queries sent before the timed phase), then the timed phase's arrival
// times and request mix.
func exploreSchedule(seed uint64, seconds int, tables []*frame.Frame, minRows int) (history, timed []exploreReq, hash string) {
	r := randx.New(seed ^ 0x6578706c6f7265)
	var h scheduleHasher
	gens := make([]*rangeGen, len(tables))
	for i, f := range tables {
		gens[i] = newRangeGen(f, minRows)
		h.add("table %s %dx%d fp=%x", f.Name(), f.NumRows(), f.NumCols(), f.Fingerprint())
	}
	// A repeat draws its query Zipf-skewed among its table's earlier
	// queries: every run has the same table mix whichever queries turn out
	// hot.
	var fw, rw []int
	for _, t := range exploreTables {
		fw, rw = append(fw, t.fresh), append(rw, t.repeat)
	}
	freshTables, repeatTables := newBlocks(r, fw), newBlocks(r, rw)
	asked := make([][]query, len(tables))
	zipfCum := make([][]float64, len(tables))
	newQuery := func() query {
		i := freshTables.next()
		q := query{table: tables[i].Name(), sql: gens[i].next(r)}
		asked[i] = append(asked[i], q)
		w := math.Pow(float64(len(asked[i])), -exploreZipfS)
		if n := len(zipfCum[i]); n > 0 {
			w += zipfCum[i][n-1]
		}
		zipfCum[i] = append(zipfCum[i], w)
		return q
	}
	for i := 0; i < exploreHistory; i++ {
		rq := exploreReq{kind: fresh, q: newQuery()}
		h.add("history %s", rq.q.sql)
		history = append(history, rq)
	}
	// A fixed count of Poisson arrivals, and exactly exploreFresh of every
	// exploreBlock requests fresh, so every run has the same number of
	// samples of each kind.
	// The gaps are scaled so the last arrival falls at the end of the
	// phase: the offered load is the same in every run.
	n := int(exploreRate) * seconds
	gaps := make([]float64, n)
	var total float64
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
		total += gaps[i]
	}
	kinds := newBlocks(r, []int{exploreFresh, exploreBlock - exploreFresh})
	var at float64
	for _, g := range gaps {
		at += g / total * float64(seconds) * float64(time.Second)
		rq := exploreReq{at: time.Duration(at), kind: fresh}
		if kinds.next() == 1 {
			rq.kind = repeat
			i := repeatTables.next()
			rq.q = asked[i][zipfDraw(r, zipfCum[i])]
		} else {
			rq.q = newQuery()
		}
		h.add("%d %s %s", rq.at.Microseconds(), rq.kind, rq.q.sql)
		timed = append(timed, rq)
	}
	return history, timed, h.sum()
}

// blocks draws indices i with frequency weights[i], exactly within every
// block of sum(weights) draws, in shuffled order.
type blocks struct {
	r       *randx.Source
	weights []int
	left    []int
}

func newBlocks(r *randx.Source, weights []int) *blocks { return &blocks{r: r, weights: weights} }

func (b *blocks) next() int {
	if len(b.left) == 0 {
		for i, w := range b.weights {
			for j := 0; j < w; j++ {
				b.left = append(b.left, i)
			}
		}
		b.r.Shuffle(len(b.left), func(i, j int) { b.left[i], b.left[j] = b.left[j], b.left[i] })
	}
	i := b.left[0]
	b.left = b.left[1:]
	return i
}

// zipfDraw draws a rank from the cumulative Zipf weights.
func zipfDraw(r *randx.Source, cum []float64) int {
	u := r.Float64() * cum[len(cum)-1]
	return min(sort.SearchFloat64s(cum, math.Nextafter(u, math.Inf(1))), len(cum)-1)
}

// exploreResult is one answered request, with what the traced run reads
// from it.
type exploreResult struct {
	op
	lag    float64 // generator lateness, ms
	req    int64   // request ID of a traced run
	bodyKB float64
	http   httpAnswer
}

func runExplore(env *runEnv) (*outcome, error) {
	out := &outcome{}
	var st *exploreStack
	for i := 0; i < env.setupReps; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = buildExplore(env.tr); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0))
	}
	defer st.close()
	cfg, _ := exploreConfig()
	history, sched, hash := exploreSchedule(env.seed, env.seconds, st.tables, cfg.MinRows)
	out.scheduleHash = hash
	var ops []op
	for _, res := range driveOpenLoop(st, history, nil, true) {
		ops = append(ops, res.op)
	}

	before := readCounters(st.router)
	env.tr.arm()
	ph := startPhase()
	results := driveOpenLoop(st, sched, env.tr, env.capacity)
	out.phase = ph.end()
	env.tr.disarm()
	after := readCounters(st.router)

	var lags []float64
	for i := range results {
		ops = append(ops, results[i].op)
		lags = append(lags, results[i].lag)
	}
	out.lagP90 = percentile(lags, 0.9)
	rb, ra := before.router.Reports, after.router.Reports
	out.reportHitRatio = ratio(float64(ra.Hits-rb.Hits), float64(ra.Requests()-rb.Requests()))

	refRouter, err := newReferenceRouter(cfg)
	if err != nil {
		return nil, err
	}
	refServer := server.New(st.catalog, refRouter, nil)
	if err := verify(ops, env.cached(func(q query) ([]byte, error) { return httpReference(refServer, q) })); err != nil {
		return nil, err
	}
	out.untimed, out.ops = ops[:len(history):len(history)], ops[len(history):]
	out.repeatShare = shareOf(out.ops, repeat)
	if env.tr != nil {
		out.layers, out.spans = exploreLayers(env.tr, st, results, before, after, out.phase, out.lagP90)
	}
	return out, nil
}

// requestBody is the JSON body of a /api/characterize request.
func requestBody(q query) []byte {
	body := map[string]any{"sql": q.sql, "excludePredicate": true}
	if q.approxCap > 0 {
		body["approximate"] = true
		body["approxRows"] = q.approxCap
		body["approxSeed"] = q.approxSeed
	}
	data, _ := json.Marshal(body) // a map of strings, bools and numbers always encodes
	return data
}

// httpReference serves q from the reference server in process.
func httpReference(ref http.Handler, q query) ([]byte, error) {
	rec := httptest.NewRecorder()
	ref.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/characterize", bytes.NewReader(requestBody(q))))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("reference: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	a, err := normalizeJSON(rec.Body.Bytes())
	if err != nil {
		return nil, err
	}
	return a.norm, nil
}

// driveOpenLoop sends the schedule: a generator hands each request to the
// clients when it is due, and each request is timed from then, so a stall
// also charges the requests queued behind it. With capacity set it sends
// back to back instead (closed loop), to measure capacity.
func driveOpenLoop(st *exploreStack, sched []exploreReq, tr *tracer, capacity bool) []exploreResult {
	results := make([]exploreResult, len(sched))
	type job struct {
		i   int
		due time.Time
	}
	// Buffered to the number of sends, so the generator never blocks on
	// busy clients and its lag measures only its own lateness.
	jobs := make(chan job, len(sched))
	var wg sync.WaitGroup
	for c := 0; c < exploreClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for j := range jobs {
				if capacity {
					j.due = time.Now()
				}
				send(client, st.url, &results[j.i], j.due, tr)
			}
		}()
	}
	start := time.Now()
	for i, rq := range sched {
		results[i].kind, results[i].q = rq.kind, rq.q
		due := start.Add(rq.at)
		if !capacity {
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			results[i].lag = ms(time.Since(due))
		}
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	return results
}

// errShed marks a request refused by admission control (HTTP 503).
var errShed = errors.New("shed by admission control")

// send performs one request and records its outcome in res.
func send(client *http.Client, url string, res *exploreResult, due time.Time, tr *tracer) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(requestBody(res.q)))
	if err != nil {
		res.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	var spanID int64
	if tr != nil {
		res.req, spanID = tr.newID(), tr.newID()
		req.Header.Set(headerRequest, fmt.Sprint(res.req))
		req.Header.Set(headerParent, fmt.Sprint(spanID))
	}
	start := tr.now()
	payload, status, err := roundTrip(client, req)
	res.lat = time.Since(due)
	if tr != nil {
		tr.add(span{id: spanID, req: res.req, name: "client.request", start: start, end: tr.now()})
	}
	switch {
	case err != nil:
		res.err = err
		return
	case status == http.StatusServiceUnavailable:
		res.err = errShed
		return
	case status != http.StatusOK:
		res.err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(payload))
		return
	}
	res.bodyKB = float64(len(payload)) / 1024
	a, err := normalizeJSON(payload)
	if err != nil {
		res.err = err
		return
	}
	res.http = a
	res.answer = a.norm
	if a.approxCap > 0 {
		res.approx = true
		res.q.approxCap, res.q.approxSeed = a.approxCap, a.approxSeed
	}
}

func roundTrip(client *http.Client, req *http.Request) ([]byte, int, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	return payload, resp.StatusCode, err
}

// exploreLayers assembles the per-layer metrics of a traced explore run:
// the db layer is timed by a side replay of every request's SQL, which
// also yields the fingerprint keys that join backend spans to requests.
func exploreLayers(tr *tracer, st *exploreStack, results []exploreResult, before, after counters, ph phaseResult, lagP90 float64) (*layerReport, []span) {
	in := layerInputs{ops: len(results), before: before, after: after, phase: ph, lagP90: lagP90}
	keys := map[int64]spanKey{}
	var replays []span
	for i := range results {
		res := &results[i]
		start := tr.now()
		qr, err := st.catalog.Query(res.q.sql)
		end := tr.now()
		if err != nil {
			continue
		}
		replays = append(replays, span{id: tr.newID(), name: "db.query", start: start, end: end, replay: true})
		in.dbQuery = append(in.dbQuery, ms(end-start))
		in.dbRows = append(in.dbRows, float64(qr.Rows.NumRows()))
		keys[res.req] = spanKey{qr.Base.Fingerprint(), qr.Mask.Fingerprint()}
		if res.err != nil {
			continue
		}
		in.responseKB = append(in.responseKB, res.bodyKB)
		a := res.http
		if a.reportCacheHit {
			continue
		}
		if a.cacheHit {
			in.split = append(in.split, a.prepMillis)
		} else {
			in.prep = append(in.prep, a.prepMillis)
		}
		in.search = append(in.search, a.searchMillis)
		in.post = append(in.post, a.postMillis)
	}
	spans := tr.snapshot()
	for i := range spans {
		if k, ok := keys[spans[i].req]; ok && spans[i].req != 0 {
			spans[i].key = k
		}
	}
	spans = append(spans, replays...)
	join(spans)
	in.spans = spans
	in.probes, in.hits, in.waits = backendTotals(st.traced)
	return layerMetrics(in), spans
}
