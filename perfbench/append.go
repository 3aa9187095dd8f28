package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	ziggy "repro"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/randx"
	"repro/internal/remote"
	"repro/internal/shard"
)

// append_remote: writes beside reads through a session whose shards are
// two remote workers on loopback HTTP.
const (
	remoteBaseRows  = 40000
	remoteBatchRows = 1000
	// remoteRoundsPerSecond sets the fixed round count, rounds =
	// remoteRoundsPerSecond × --seconds (100 at 20 s, so append_p90_ms has
	// 100 samples), so table growth is identical on every commit; a round
	// took about 0.1 s on a 2-core Xeon, go1.24.
	remoteRoundsPerSecond = 5
	// remoteRepeats is how many times each round re-asks its standing
	// query after the first answer on the grown table.
	remoteRepeats = 2
)

// remoteShape: 16 columns, four of them categorical and two numeric ones
// with 5% NULLs.
var remoteShape = tableShape{cols: 16, catEvery: 4, nullEvery: 8, nullRate: 0.05, chunkRows: 4096}

// remoteConfigs pins the front's and each worker's configuration.
func remoteConfigs() (front, worker core.Config, params shard.Params) {
	front = core.DefaultConfig()
	front.Parallelism = 2
	front.Shards = 2
	front.CacheEntries = core.DefaultCacheEntries
	front.CacheBytes = core.DefaultCacheBytes
	front.ApproxRows = core.DefaultApproxRows
	worker = front
	worker.Shards = 1
	// Each worker keeps table versions in an LRU bounded by the cache
	// bytes. 64 MiB holds the latest version of both tables, which the
	// next delta needs as its base, at their final 90000 rows (12 MB
	// each) with room to spare, and keeps the run's memory small. At 32
	// MiB bases were evicted late in the run and appends re-shipped whole
	// tables, which made append_p90_ms vary by a quarter from seed to seed.
	worker.CacheBytes = 64 << 20
	return front, worker, shard.Params{Concurrency: shard.DefaultConcurrency, QueueDepth: shard.DefaultQueueDepth}
}

// appendPlan is the generated input of an append workload: base tables,
// one standing query per table, and per round the rows to append and the
// new selection to ask on the grown table.
type appendPlan struct {
	base     []*frame.Frame
	standing []string
	rounds   []appendRound
}

type appendRound struct {
	table int
	batch *frame.Frame
	fresh string // "" = no fresh query this round
}

// makeAppendPlan generates the plan from seed: tables named names, rounds
// rounds alternating over them.
func makeAppendPlan(seed uint64, shape tableShape, names []string, baseRows, batchRows, rounds int, withFresh bool, minRows int) (*appendPlan, string) {
	r := randx.New(seed ^ 0x617070656e64)
	var h scheduleHasher
	p := &appendPlan{}
	gens := make([]*rangeGen, len(names))
	for i, name := range names {
		f := genRows(name, shape, r.Uint64(), baseRows)
		p.base = append(p.base, f)
		gens[i] = newRangeGen(f, minRows)
		p.standing = append(p.standing, gens[i].next(r))
		h.add("table %s %dx%d fp=%x standing %s", name, f.NumRows(), f.NumCols(), f.Fingerprint(), p.standing[i])
	}
	for k := 0; k < rounds; k++ {
		rd := appendRound{table: k % len(names)}
		rd.batch = genRows(names[rd.table], shape, r.Uint64(), batchRows)
		if withFresh {
			rd.fresh = gens[rd.table].next(r)
		}
		h.add("round %d %s +%d fp=%x %s", k, names[rd.table], batchRows, rd.batch.Fingerprint(), rd.fresh)
		p.rounds = append(p.rounds, rd)
	}
	return p, h.sum()
}

// versions returns the reference's table source: it rebuilds each
// table's appended versions in order, as verification asks for them.
func (p *appendPlan) versions() func(q query) (*frame.Frame, error) {
	cur := append([]*frame.Frame(nil), p.base...)
	ver := make([]int, len(p.base))
	batches := make([][]*frame.Frame, len(p.base))
	for _, rd := range p.rounds {
		batches[rd.table] = append(batches[rd.table], rd.batch)
	}
	return func(q query) (*frame.Frame, error) {
		t := -1
		for i, f := range p.base {
			if f.Name() == q.table {
				t = i
			}
		}
		if t < 0 || q.version < ver[t] || q.version > len(batches[t]) {
			return nil, fmt.Errorf("no version %d of table %q in order", q.version, q.table)
		}
		for ver[t] < q.version {
			grown, err := cur[t].Append(batches[t][ver[t]])
			if err != nil {
				return nil, err
			}
			cur[t], ver[t] = grown, ver[t]+1
		}
		return cur[t], nil
	}
}

// appendRunner runs an append plan's rounds against a session.
type appendRunner struct {
	sess    *ziggy.Session
	plan    *appendPlan
	repeats int
	tr      *tracer
	ph      *phase
	side    *sideReplays // nil in untraced runs
	in      *layerInputs // nil in untraced runs
	ops     []op
	appends int
}

// ask characterizes sql and records the op, timed from t0; a traced run
// records it as a span of request req.
func (d *appendRunner) ask(k kind, table string, version int, sql string, t0 time.Time, req int64) {
	o := op{kind: k, q: query{table: table, version: version, sql: sql}}
	exclude, err := ziggy.PredicateColumns(sql)
	var qr *ziggy.QueryReport
	if err == nil {
		qr, err = d.sess.CharacterizeOpts(sql, core.Options{ExcludeColumns: exclude})
	}
	o.lat = time.Since(t0)
	if err != nil {
		o.err = err
	} else {
		sessionAnswer(&o, qr.Report)
	}
	d.ops = append(d.ops, o)
	if d.side == nil || err != nil {
		return
	}
	d.ph.pause()
	name := "op.query"
	if k == appendOp {
		name = "op.append"
	}
	d.tr.add(span{id: d.tr.newID(), req: req, name: name, start: d.tr.at(t0), end: d.tr.at(t0.Add(o.lat)),
		key: spanKey{qr.Base.Fingerprint(), qr.Mask.Fingerprint()}})
	stageTimes(d.in, qr.Report)
	d.side.query(d.sess, sql)
	d.ph.resume()
}

// run drives every round.
func (d *appendRunner) run() error {
	ver := make([]int, len(d.plan.base))
	for _, rd := range d.plan.rounds {
		name := d.plan.base[rd.table].Name()
		standing := d.plan.standing[rd.table]
		req := d.tr.newID()
		t0 := time.Now()
		err := d.sess.Append(name, rd.batch)
		d.tr.add(span{name: "frame.append", req: req, start: d.tr.at(t0), end: d.tr.now()})
		if err != nil {
			return fmt.Errorf("append to %s: %w", name, err)
		}
		d.appends++
		ver[rd.table]++
		d.ask(appendOp, name, ver[rd.table], standing, t0, req)
		if d.side != nil {
			d.ph.pause()
			if f, ok := d.sess.Table(name); ok {
				d.side.prepare(f)
			}
			d.ph.resume()
		}
		for i := 0; i < d.repeats; i++ {
			d.ask(repeat, name, ver[rd.table], standing, time.Now(), d.tr.newID())
		}
		if rd.fresh != "" {
			d.ask(fresh, name, ver[rd.table], rd.fresh, time.Now(), d.tr.newID())
		}
	}
	return nil
}

// remoteStack is the append_remote serving stack: two workers on loopback
// listeners and a session routing to them.
type remoteStack struct {
	sess    *ziggy.Session
	workers []*http.Server
	served  []chan struct{}
	wspans  []*workerSpans
	traced  []*tracedBackend
}

func buildRemote(plan *appendPlan, tr *tracer) (*remoteStack, error) {
	front, worker, params := remoteConfigs()
	st := &remoteStack{}
	var addrs []string
	for i := 0; i < front.Shards; i++ {
		router, err := shard.NewWithParams(worker, nil, params)
		if err != nil {
			st.close()
			return nil, err
		}
		var h http.Handler = remote.NewWorker(router)
		if tr != nil {
			ws := newWorkerSpans(tr, h)
			st.wspans = append(st.wspans, ws)
			h = ws
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		srv := &http.Server{Handler: h}
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(ln) // returns http.ErrServerClosed on close
		}()
		st.workers = append(st.workers, srv)
		st.served = append(st.served, served)
		addrs = append(addrs, ln.Addr().String())
	}
	var opt ziggy.Option
	if tr != nil {
		clients := make([]shard.Backend, len(addrs))
		for i, a := range addrs {
			clients[i] = remote.NewClient(a)
		}
		wrapped, traced := traceBackends(tr, clients)
		st.traced = traced
		opt = ziggy.WithBackends(wrapped...)
	} else {
		opt = ziggy.WithPeers(addrs...)
	}
	sess, err := ziggy.New(front, opt)
	if err != nil {
		st.close()
		return nil, err
	}
	st.sess = sess
	// Ship the base tables and prepare them on their workers.
	for i, f := range plan.base {
		if err := sess.Register(f); err != nil {
			st.close()
			return nil, err
		}
		if _, err := sess.Characterize(plan.standing[i]); err != nil {
			st.close()
			return nil, fmt.Errorf("warming %s: %w", f.Name(), err)
		}
	}
	return st, nil
}

func (st *remoteStack) close() {
	if st.sess != nil {
		st.sess.Close()
	}
	for i, srv := range st.workers {
		srv.Close()
		<-st.served[i]
	}
}

func runAppendRemote(env *runEnv) (*outcome, error) {
	front, worker, _ := remoteConfigs()
	plan, hash := makeAppendPlan(env.seed, remoteShape, []string{"orders", "events"},
		remoteBaseRows, remoteBatchRows, remoteRoundsPerSecond*env.seconds, true, front.MinRows)
	out := &outcome{scheduleHash: hash}
	var st *remoteStack
	for i := 0; i < env.setupReps; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = buildRemote(plan, env.tr); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0))
	}
	defer st.close()

	d := &appendRunner{sess: st.sess, plan: plan, repeats: remoteRepeats, tr: env.tr}
	if env.tr != nil {
		d.in = &layerInputs{remote: true}
		d.side = &sideReplays{tr: env.tr, measure: worker.Measure, linkage: worker.Linkage, workers: worker.Parallelism}
	}
	before := readCounters(st.sess.Router())
	env.tr.arm()
	d.ph = startPhase()
	err := d.run()
	out.phase = d.ph.end()
	env.tr.disarm()
	after := readCounters(st.sess.Router())
	if err != nil {
		return nil, err
	}
	out.ops = d.ops
	out.repeatShare = shareOf(d.ops, repeat)
	ra, rb := after.router.Totals().Reports, before.router.Totals().Reports
	out.reportHitRatio = ratio(float64(ra.Hits-rb.Hits), float64(ra.Requests()-rb.Requests()))

	ref, err := newSessionReference(worker, plan.versions())
	if err != nil {
		return nil, err
	}
	if err := verify(out.ops, env.cached(ref.reference)); err != nil {
		return nil, err
	}
	if env.tr != nil {
		in := d.in
		in.ops, in.appends, in.before, in.after, in.phase = len(d.ops), d.appends, before, after, out.phase
		in.spans = env.tr.snapshot()
		d.side.fill(in)
		join(in.spans)
		in.probes, in.hits, in.waits = backendTotals(st.traced)
		for _, ws := range st.wspans {
			in.workerRPCs += int(ws.calls.Load())
		}
		out.layers, out.spans = layerMetrics(*in), in.spans
	}
	return out, nil
}

// shareOf returns the share of ops of kind k.
func shareOf(ops []op, k kind) float64 {
	var n int
	for _, o := range ops {
		if o.kind == k {
			n++
		}
	}
	return ratio(float64(n), float64(len(ops)))
}

// The append probe gives workloads that do not append their append_*
// metrics: after the timed phase, a small in-process session grows one
// table batch by batch and asks a standing query after each append. It
// touches none of the workload's own stack.
const (
	probeBaseRows  = 2000
	probeBatchRows = 64
	probeRounds    = 120
)

var probeShape = tableShape{cols: 16, catEvery: 4, nullEvery: 8, nullRate: 0.05, chunkRows: 512}

func probeConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Parallelism = 1
	cfg.Shards = 1
	cfg.CacheEntries = core.DefaultCacheEntries
	cfg.CacheBytes = core.DefaultCacheBytes
	return cfg
}

// appendProbe runs the probe and returns its verified ops.
func appendProbe(seed uint64) ([]op, error) {
	runtime.GC() // start from the same heap whatever ran before
	cfg := probeConfig()
	plan, _ := makeAppendPlan(seed^0x70726f6265, probeShape, []string{"probe"}, probeBaseRows, probeBatchRows, probeRounds, false, cfg.MinRows)
	sess, err := ziggy.New(cfg)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	if err := sess.Register(plan.base[0]); err != nil {
		return nil, err
	}
	if _, err := sess.Characterize(plan.standing[0]); err != nil {
		return nil, err
	}
	d := &appendRunner{sess: sess, plan: plan}
	if err := d.run(); err != nil {
		return nil, err
	}
	ref, err := newSessionReference(cfg, plan.versions())
	if err != nil {
		return nil, err
	}
	if err := verify(d.ops, ref.reference); err != nil {
		return nil, err
	}
	return d.ops, nil
}
