package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKey identifies a characterization by content: the table's frame
// fingerprint and the selection's bitmap fingerprint. shard.Backend calls
// carry no request context, so their spans join their request by key.
type spanKey struct{ frame, sel uint64 }

// span is one timed call at a layer boundary, recorded from outside the
// program by the wrappers in layers.go.
type span struct {
	id, parent int64
	// req is the request the span belongs to; 0 until joined.
	req        int64
	name       string
	start, end time.Duration // since the tracer's epoch
	key        spanKey
	// replay marks a side replay: work redone after the timed phase to
	// time a layer that has no wrapper-visible boundary. Replays belong to
	// no request and never count toward a request's time.
	replay bool
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory for the length of a traced run. Recording
// is off until arm is called, so set-up work leaves no spans.
type tracer struct {
	epoch time.Time
	armed atomic.Bool
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// arm and disarm switch recording; both are no-ops on a nil tracer.
func (t *tracer) arm() {
	if t != nil {
		t.armed.Store(true)
	}
}

func (t *tracer) disarm() {
	if t != nil {
		t.armed.Store(false)
	}
}

// now is the current offset from the epoch (0 for a nil tracer).
func (t *tracer) now() time.Duration { return t.at(time.Now()) }

// at is the offset of instant x from the epoch (0 for a nil tracer).
func (t *tracer) at(x time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return x.Sub(t.epoch)
}

// newID allocates a span or request ID (0 for a nil tracer).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span and returns its ID; a disarmed tracer drops
// it and returns 0.
func (t *tracer) add(s span) int64 {
	if t == nil || !t.armed.Load() {
		return 0
	}
	if s.id == 0 {
		s.id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.id
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// contains reports whether interval a contains interval b.
func contains(a, b span) bool { return a.start <= b.start && b.end <= a.end }

// innermost picks, among candidates containing s, the one that started
// last (ties: ended first, then lowest ID) — the tightest enclosing call.
func innermost(s span, cands []*span) *span {
	var best *span
	for _, c := range cands {
		if c.id == s.id || !contains(*c, s) {
			continue
		}
		if best == nil || c.start > best.start ||
			(c.start == best.start && (c.end < best.end || (c.end == best.end && c.id < best.id))) {
			best = c
		}
	}
	return best
}

// join gives every non-replay span that lacks a request a parent and a
// request. First, a span with a key joins the innermost containing span of
// some request with the same key: the fingerprint join, with time
// containment breaking ties between concurrent identical requests. Then a
// span still unjoined joins the innermost containing span of any request.
// Spans that nothing contains stay unjoined.
func join(spans []span) {
	byKey := map[spanKey][]*span{}
	var owned []*span
	for i := range spans {
		s := &spans[i]
		if s.req != 0 && !s.replay {
			owned = append(owned, s)
			if s.key != (spanKey{}) {
				byKey[s.key] = append(byKey[s.key], s)
			}
		}
	}
	adopt := func(s, p *span) {
		s.parent, s.req = p.id, p.req
	}
	var pending, joined []*span
	for i := range spans {
		s := &spans[i]
		if s.req != 0 || s.replay {
			continue
		}
		if s.key != (spanKey{}) {
			if p := innermost(*s, byKey[s.key]); p != nil {
				adopt(s, p)
				joined = append(joined, s)
				continue
			}
		}
		pending = append(pending, s)
	}
	// Spans joined by key can now parent the rest (a worker-side span
	// inside the RPC span that carried it). Longer spans join first, so a
	// short one can land inside a longer unkeyed one joined before it.
	owned = append(owned, joined...)
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].dur() > pending[j].dur() })
	for _, s := range pending {
		if p := innermost(*s, owned); p != nil {
			adopt(s, p)
			owned = append(owned, s)
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (the union of their intervals, clipped to the
// span), keyed by span ID.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = s.dur() - covered(s, children[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to s.
func covered(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, s.start), min(k.end, s.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// spanStats is the per-name summary of a traced run.
type spanStats struct {
	name     string
	count    int
	p50, p90 float64 // ms
	selfP50  float64 // ms
	unjoined int
	replay   bool
}

// summarize groups spans by name.
func summarize(spans []span) []spanStats {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	unjoined := map[string]int{}
	replay := map[string]bool{}
	for _, s := range spans {
		replay[s.name] = replay[s.name] || s.replay
		durs[s.name] = append(durs[s.name], ms(s.dur()))
		selfs[s.name] = append(selfs[s.name], ms(self[s.id]))
		if s.req == 0 && !s.replay {
			unjoined[s.name]++
		}
	}
	names := make([]string, 0, len(durs))
	for n := range durs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]spanStats, 0, len(names))
	for _, n := range names {
		d := durs[n]
		out = append(out, spanStats{
			name: n, count: len(d), p50: percentile(d, 0.5), p90: percentile(d, 0.9),
			selfP50: percentile(selfs[n], 0.5), unjoined: unjoined[n], replay: replay[n],
		})
	}
	return out
}

// layerReport collects the per-layer metrics of a traced run in print
// order, each with the base it was computed from.
type layerReport struct {
	names []string
	vals  map[string]metric
	notes map[string]string
}

func newLayerReport() *layerReport {
	return &layerReport{vals: map[string]metric{}, notes: map[string]string{}}
}

func (r *layerReport) set(name string, v float64, unit, note string) {
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	r.vals[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// setRatio records num/den (0 when den is 0) with its base.
func (r *layerReport) setRatio(name string, num, den float64, unit string) {
	r.set(name, ratio(num, den), unit, fmt.Sprintf("(%g / %g)", num, den))
}

// setPercentile records the q-th percentile of xs (ms) with its count.
func (r *layerReport) setPercentile(name string, xs []float64, q float64) {
	r.set(name, percentile(xs, q), "ms", fmt.Sprintf("(n=%d)", len(xs)))
}

// print writes the per-span table and the metrics.
func (r *layerReport) print(w io.Writer, spans []span) {
	fmt.Fprintf(w, "  %-34s %7s %10s %10s %10s %8s\n", "span", "count", "p50_ms", "p90_ms", "self_p50", "unjoined")
	for _, s := range summarize(spans) {
		name := s.name
		if s.replay {
			name += " (replay)"
		}
		fmt.Fprintf(w, "  %-34s %7d %10.3f %10.3f %10.3f %8d\n", name, s.count, s.p50, s.p90, s.selfP50, s.unjoined)
	}
	fmt.Fprintln(w, "per-layer metrics:")
	for _, n := range r.names {
		v := r.vals[n]
		fmt.Fprintf(w, "  %-36s %14.4f %-6s %s\n", n, v.Value, v.Unit, r.notes[n])
	}
}

// writeSpans writes the spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_us":%d,"end_us":%d,"frame_fp":%d,"sel_fp":%d,"replay":%t}`+"\n",
			s.id, s.parent, s.req, s.name, s.start.Microseconds(), s.end.Microseconds(), s.key.frame, s.key.sel, s.replay)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
