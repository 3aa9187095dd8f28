package load

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"repro/internal/frame"
	"repro/internal/randx"
	"repro/internal/stats"
	"repro/internal/synth"
)

// Threshold queries draw their quantile in [qMin, qMax], keeping both the
// selection and the complement comfortably above the engine's minimum
// split size even on the smallest allowed micro table.
const (
	qMin = 0.10
	qMax = 0.90
)

// Request is one scheduled characterization: everything a target needs to
// execute it and everything the renderer needs to prove two runs replayed
// the same traffic.
type Request struct {
	// Session and Phase locate the request in the schedule.
	Session int
	Phase   string
	// Table is the registered table name the query selects from.
	Table string
	// SQL is the threshold query.
	SQL string
	// PredCols are the WHERE-referenced columns, precomputed so in-process
	// targets apply the same exclusions ziggyd derives server-side from
	// excludePredicate.
	PredCols []string
	// Mode selects the engine configuration (robust/extended variants).
	Mode Mode
	// Exclude keeps the predicate columns out of the views.
	Exclude bool
	// SkipCache bypasses the report-level memo, forcing the pipeline.
	SkipCache bool
	// Approx asks for a sample-based approximate answer.
	Approx bool
	// Think is the pause before issuing this request.
	Think time.Duration
}

// ScheduleTable is one materialized table with its query-generation state.
type ScheduleTable struct {
	// Frame is the table, named Spec.Tables[i].Name.
	Frame *frame.Frame
	// eligible are the numeric columns threshold queries may select on;
	// sorted holds their non-NULL values for quantile lookups.
	eligible []string
	sorted   map[string][]float64
}

// Schedule is the fully expanded request sequence of (Spec, seed): a pure
// function of the pair, so two runs — or a run and its checked-in baseline
// — can compare hashes to prove they replayed identical traffic.
type Schedule struct {
	Spec *Spec
	Seed uint64
	// Tables is parallel to Spec.Tables.
	Tables []ScheduleTable
	// Sessions holds each session's request sequence.
	Sessions [][]Request
}

// mixSeed derives a child seed from independent parts (FNV-1a over the
// little-endian bytes), so pools, sessions and phases draw from
// non-overlapping streams without any ordering coupling.
func mixSeed(parts ...uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range parts {
		for i := range buf {
			buf[i] = byte(p >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Stream tags for mixSeed, so the pool and session streams cannot collide.
const (
	streamPool    = 0x706f6f6c // "pool"
	streamSession = 0x73657373 // "sess"
	streamApprox  = 0x61707278 // "aprx"
)

// BuildSchedule materializes the spec's tables and expands every session's
// request sequence. Generation is target-independent: the schedule never
// depends on timing, shard count or responses.
func BuildSchedule(spec *Spec, seed uint64) (*Schedule, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{Spec: spec, Seed: seed}
	for _, t := range spec.Tables {
		tbl, err := materializeTable(t)
		if err != nil {
			return nil, err
		}
		s.Tables = append(s.Tables, tbl)
	}

	// Repeat pools are generated before any session and shared by all of
	// them: colleagues re-running each other's queries is exactly what makes
	// the repeat phases cache-friendly across sessions.
	pools := make([][][]string, len(spec.Phases))
	for pi, p := range spec.Phases {
		if p.Kind == KindChurn {
			continue
		}
		pools[pi] = make([][]string, len(s.Tables))
		for ti := range s.Tables {
			r := randx.New(mixSeed(seed, streamPool, uint64(pi), uint64(ti)))
			pool := make([]string, p.Pool)
			for k := range pool {
				pool[k] = s.Tables[ti].drawSQL(r)
			}
			pools[pi][ti] = pool
		}
	}

	s.Sessions = make([][]Request, spec.Sessions)
	for si := range s.Sessions {
		r := randx.New(mixSeed(seed, streamSession, uint64(si)))
		// Approx draws come from a forked stream so turning approximation on
		// (or off) in a phase never perturbs which queries, modes and think
		// times the rest of the schedule draws.
		ra := randx.New(mixSeed(seed, streamApprox, uint64(si)))
		var reqs []Request
		for pi, p := range spec.Phases {
			for k := 0; k < p.Requests; k++ {
				ti := 0
				if len(s.Tables) > 1 {
					ti = r.Intn(len(s.Tables))
				}
				var sql string
				if p.Kind == KindChurn {
					sql = s.Tables[ti].drawSQL(r)
				} else {
					pool := pools[pi][ti]
					sql = pool[r.Intn(len(pool))]
				}
				req := Request{
					Session:   si,
					Phase:     p.Name,
					Table:     s.Tables[ti].Frame.Name(),
					SQL:       sql,
					PredCols:  []string{sqlColumn(sql)},
					Exclude:   r.Bernoulli(p.Exclude),
					SkipCache: r.Bernoulli(p.SkipCache),
					Approx:    ra.Bernoulli(p.Approx),
					Mode:      drawMode(r, p.Modes),
					Think:     drawThink(r, p),
				}
				reqs = append(reqs, req)
			}
		}
		s.Sessions[si] = reqs
	}
	return s, nil
}

// materializeTable generates the table and precomputes its eligible
// threshold columns.
func materializeTable(t TableSpec) (ScheduleTable, error) {
	var f *frame.Frame
	if t.Dataset == DatasetMicro {
		f = synth.Micro(t.Name, t.Seed, t.Rows, t.Cols)
	} else {
		var err error
		if f, err = synth.ByName(t.Dataset, t.Seed); err != nil {
			return ScheduleTable{}, fmt.Errorf("load: %w", err)
		}
	}
	if f.Name() != t.Name {
		renamed, err := frame.New(t.Name, f.Columns())
		if err != nil {
			return ScheduleTable{}, fmt.Errorf("load: renaming %s table to %q: %w", t.Dataset, t.Name, err)
		}
		f = renamed
	}
	tbl := ScheduleTable{Frame: f, sorted: map[string][]float64{}}
	for _, ci := range f.NumericColumns() {
		name := f.Col(ci).Name()
		sorted, err := f.SortedNumeric(name)
		if err != nil || len(sorted) < 20 {
			continue // too many NULLs for stable thresholds
		}
		// Degenerate columns (near-constant) cannot produce a two-sided
		// split at any quantile in [qMin, qMax].
		if stats.Quantile(sorted, qMin) >= stats.Quantile(sorted, qMax) {
			continue
		}
		tbl.eligible = append(tbl.eligible, name)
		tbl.sorted[name] = sorted
	}
	if len(tbl.eligible) == 0 {
		return ScheduleTable{}, fmt.Errorf("load: table %q has no columns eligible for threshold queries", t.Name)
	}
	return tbl, nil
}

// drawSQL generates one threshold query: a uniformly drawn eligible column
// at a uniformly drawn quantile. The threshold is printed with 'g'/-1
// formatting, which the SQL lexer round-trips exactly.
func (t *ScheduleTable) drawSQL(r *randx.Source) string {
	col := t.eligible[r.Intn(len(t.eligible))]
	q := qMin + r.Float64()*(qMax-qMin)
	thr := stats.Quantile(t.sorted[col], q)
	return fmt.Sprintf("SELECT * FROM %s WHERE %s >= %s",
		t.Frame.Name(), col, strconv.FormatFloat(thr, 'g', -1, 64))
}

// sqlColumn recovers the WHERE column of a generated threshold query — the
// token after WHERE; generated SQL always has exactly one predicate.
func sqlColumn(sql string) string {
	fields := strings.Fields(sql)
	for i, f := range fields {
		if f == "WHERE" && i+1 < len(fields) {
			return fields[i+1]
		}
	}
	return ""
}

// drawMode samples the phase's engine-mode mix.
func drawMode(r *randx.Source, modes []ModeWeight) Mode {
	if len(modes) == 0 {
		return Mode{}
	}
	if len(modes) == 1 {
		return modes[0].Mode
	}
	w := make([]float64, len(modes))
	for i, mw := range modes {
		w[i] = mw.Weight
	}
	return modes[r.Categorical(w)].Mode
}

// drawThink samples the inter-request pause. Burst phases fire back to
// back regardless of the configured distribution.
func drawThink(r *randx.Source, p Phase) time.Duration {
	if p.Kind == KindBurst {
		return 0
	}
	switch p.Think.Kind {
	case ThinkFixed:
		return p.Think.A
	case ThinkUniform:
		return p.Think.A + time.Duration(r.Float64()*float64(p.Think.B-p.Think.A))
	case ThinkExp:
		return time.Duration(r.ExpFloat64() * float64(p.Think.A))
	default:
		return 0
	}
}

// TotalRequests returns the number of scheduled requests.
func (s *Schedule) TotalRequests() int {
	n := 0
	for _, reqs := range s.Sessions {
		n += len(reqs)
	}
	return n
}

// Render prints the schedule canonically, one request per line — the
// artifact the determinism tests (and zigload -schedule-only) compare.
func (s *Schedule) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %s seed=%d sessions=%d requests=%d\n",
		s.Spec.Name, s.Seed, len(s.Sessions), s.TotalRequests())
	for si, reqs := range s.Sessions {
		for i, r := range reqs {
			fmt.Fprintf(&b, "s%d/%d %s %s mode=%s ex=%t skip=%t approx=%t think=%s %s\n",
				si, i, r.Phase, r.Table, r.Mode, r.Exclude, r.SkipCache, r.Approx, r.Think, r.SQL)
		}
	}
	return b.String()
}

// Hash returns the FNV-64a hash of the canonical rendering, hex-encoded —
// the schedule-identity fingerprint BENCH_serving.json records and
// benchdiff compares against the baseline.
func (s *Schedule) Hash() string {
	h := fnv.New64a()
	h.Write([]byte(s.Render()))
	return fmt.Sprintf("%016x", h.Sum64())
}
