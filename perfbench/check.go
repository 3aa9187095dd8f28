package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	ziggy "repro"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/frame"
	"repro/internal/shard"
)

// query identifies what an answer covers: a SQL selection on one version
// of a table, exact or approximate. Answers to one query must agree byte
// for byte.
type query struct {
	table string
	// version counts the appends applied to the table before the query.
	version int
	sql     string
	// approxCap and approxSeed describe an approximate answer (cap 0 =
	// exact): such an answer is checked against the explicit approximate
	// request with the same cap and seed.
	approxCap  int
	approxSeed uint64
}

func (q query) String() string {
	s := fmt.Sprintf("%s@v%d %q", q.table, q.version, q.sql)
	if q.approxCap > 0 {
		s += fmt.Sprintf(" approx(cap=%d,seed=%d)", q.approxCap, q.approxSeed)
	}
	return s
}

// referenceConfig is the engine configuration of the independent reference:
// the workload's engine settings on one shard, run sequentially.
func referenceConfig(cfg core.Config) core.Config {
	cfg.Parallelism = 1
	cfg.Shards = 1
	return cfg
}

// normalizeReport strips the fields that differ between servings of one
// request — timings and cache provenance — and encodes the rest
// canonically, as internal/load does for its byte-identity checks.
func normalizeReport(rep *core.Report) []byte {
	norm := *rep
	norm.Timings = core.Timings{}
	norm.CacheHit = false
	norm.ReportCacheHit = false
	return core.EncodeReport(&norm)
}

// volatileJSONFields are the response fields normalizeJSON strips, matching
// what normalizeReport removes from the binary encoding.
var volatileJSONFields = []string{"prepMillis", "searchMillis", "postMillis", "cacheHit", "reportCacheHit"}

// httpAnswer is the decoded part of a /api/characterize response the
// benchmark reads besides the normalised bytes.
type httpAnswer struct {
	norm           []byte
	prepMillis     float64
	searchMillis   float64
	postMillis     float64
	cacheHit       bool
	reportCacheHit bool
	approxCap      int
	approxSeed     uint64
}

// normalizeJSON decodes a /api/characterize response and re-encodes it
// canonically without its volatile fields.
func normalizeJSON(body []byte) (httpAnswer, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return httpAnswer{}, fmt.Errorf("decoding response: %w", err)
	}
	var a httpAnswer
	a.prepMillis, _ = m["prepMillis"].(float64)
	a.searchMillis, _ = m["searchMillis"].(float64)
	a.postMillis, _ = m["postMillis"].(float64)
	a.cacheHit, _ = m["cacheHit"].(bool)
	a.reportCacheHit, _ = m["reportCacheHit"].(bool)
	if ap, ok := m["approximate"].(map[string]any); ok {
		c, _ := ap["capRows"].(float64)
		s, _ := ap["seed"].(float64)
		a.approxCap, a.approxSeed = int(c), uint64(s)
	}
	for _, f := range volatileJSONFields {
		delete(m, f)
	}
	norm, err := json.Marshal(m) // map keys sort: canonical
	if err != nil {
		return httpAnswer{}, err
	}
	a.norm = norm
	return a, nil
}

// verify checks every answered operation: each answer must equal the
// first answer to its query and the reference computed for that query.
// Mismatches are recorded on the operations. reference is called once per
// distinct query, in the order the queries were first answered.
func verify(ops []op, reference func(query) ([]byte, error)) error {
	first := map[query][]byte{}
	refs := map[query][]byte{}
	for i := range ops {
		o := &ops[i]
		if o.err != nil {
			continue
		}
		if f, ok := first[o.q]; !ok {
			first[o.q] = o.answer
		} else if !bytes.Equal(f, o.answer) {
			o.mismatch = "differs from the first answer to the same query"
			continue
		}
		ref, ok := refs[o.q]
		if !ok {
			var err error
			if ref, err = reference(o.q); err != nil {
				return fmt.Errorf("reference for %v: %w", o.q, err)
			}
			refs[o.q] = ref
		}
		if !bytes.Equal(ref, o.answer) {
			o.mismatch = "differs from the reference"
		}
	}
	return nil
}

// sessionReference answers queries with an independent single-shard,
// sequential engine over its own catalog; frames are supplied per query by
// the workload (so appended versions can be rebuilt on demand).
type sessionReference struct {
	engine  *core.Engine
	catalog *db.Catalog
	tables  func(q query) (*frame.Frame, error)
}

func newSessionReference(cfg core.Config, tables func(query) (*frame.Frame, error)) (*sessionReference, error) {
	eng, err := core.New(referenceConfig(cfg))
	if err != nil {
		return nil, err
	}
	return &sessionReference{engine: eng, catalog: db.NewCatalog(), tables: tables}, nil
}

func (s *sessionReference) reference(q query) ([]byte, error) {
	f, err := s.tables(q)
	if err != nil {
		return nil, err
	}
	if err := s.catalog.Register(f); err != nil {
		return nil, err
	}
	res, err := s.catalog.Query(q.sql)
	if err != nil {
		return nil, err
	}
	exclude, err := ziggy.PredicateColumns(q.sql)
	if err != nil {
		return nil, err
	}
	opts := core.Options{ExcludeColumns: exclude, ApproxRows: q.approxCap, ApproxSeed: q.approxSeed}
	rep, err := s.engine.CharacterizeOpts(res.Base, res.Mask, opts)
	if err != nil {
		return nil, err
	}
	return normalizeReport(rep), nil
}

// sessionAnswer turns a Session report into an op's answer and query.
func sessionAnswer(o *op, rep *core.Report) {
	o.answer = normalizeReport(rep)
	if a := rep.Approximate; a != nil {
		o.approx = true
		o.q.approxCap, o.q.approxSeed = a.CapRows, a.Seed
	}
}

// newReferenceRouter builds the reference serving layer for HTTP answers:
// one in-process shard, sequential.
func newReferenceRouter(cfg core.Config) (*shard.Router, error) {
	return shard.NewWithParams(referenceConfig(cfg), nil, shard.Params{Concurrency: 1, QueueDepth: 1 << 20})
}
