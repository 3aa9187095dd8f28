package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// kind classifies a timed operation for the latency metrics.
type kind int

const (
	// fresh asks a (table version, selection) the run has not asked before.
	fresh kind = iota
	// repeat asks one the run has asked before.
	repeat
	// appendOp grows a table and asks for the first report on the grown
	// version; its latency runs from the Append call to that answer.
	appendOp
)

func (k kind) String() string {
	return [...]string{"fresh", "repeat", "append"}[k]
}

// goodputLimit is the latency within which a correct, exact answer counts
// toward goodput_ratio, measured from when the operation was due.
const goodputLimit = 500 * time.Millisecond

// op is one timed operation and its answer.
type op struct {
	kind kind
	// lat runs from when the operation was due (open loop) or sent (closed
	// loop) until its answer returned.
	lat time.Duration
	err error
	// approx marks an answer served degraded or approximate.
	approx bool
	// q is what the answer covers; answers to one query must agree byte
	// for byte, with each other and with the query's reference.
	q query
	// answer is the normalised answer: timings and cache flags stripped.
	answer []byte
	// mismatch is set by verification.
	mismatch string
}

func (o *op) failed() bool { return o.err != nil || o.mismatch != "" }

// outcome is everything one workload run produced.
type outcome struct {
	ops []op
	// untimed holds verified ops outside the timed phase: the history
	// explore_http sends first, and the append probe of workloads that do
	// not append. They count toward correctness; the probe's also supply
	// append_*.
	untimed []op
	setup   []time.Duration
	phase   phaseResult
	// scheduleHash is the hash of the generated inputs (tables and
	// schedule): the same seed gives the same hash.
	scheduleHash string
	// lagP90 is the open-loop generator's p90 lateness in ms (0 for closed
	// loops).
	lagP90 float64
	// repeatShare and reportHitRatio are recorded with every result, so a
	// change that helps only repeated queries can cite them.
	repeatShare, reportHitRatio float64
	// layers and spans hold the per-layer metrics and joined spans of a
	// traced run.
	layers *layerReport
	spans  []span
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd computes the end-to-end metrics of an untraced run, writing a
// human-readable line per metric (with sample counts) to w.
func endToEnd(w io.Writer, o *outcome) map[string]metric {
	lat := map[kind][]float64{}
	var failed, approx, good int
	for i := range o.ops {
		op := &o.ops[i]
		if op.failed() {
			failed++
			continue
		}
		lat[op.kind] = append(lat[op.kind], ms(op.lat))
		if op.approx {
			approx++
		} else if op.lat <= goodputLimit {
			good++
		}
	}
	for i := range o.untimed {
		if u := &o.untimed[i]; u.kind == appendOp && !u.failed() {
			lat[appendOp] = append(lat[appendOp], ms(u.lat))
		}
	}
	n := float64(len(o.ops))
	completed := len(o.ops) - failed
	setup := make([]float64, len(o.setup))
	for i, d := range o.setup {
		setup[i] = d.Seconds()
	}
	out := map[string]metric{}
	put := func(name string, v float64, unit, note string) {
		out[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(w, "  %-16s %12.4f %-5s %s\n", name, v, unit, note)
	}
	put("setup_s", percentile(setup, 0.5), "s", fmt.Sprintf("(median of %d set-ups)", len(setup)))
	for _, k := range []kind{fresh, repeat, appendOp} {
		xs := lat[k]
		put(k.String()+"_p50_ms", percentile(xs, 0.5), "ms", fmt.Sprintf("(n=%d)", len(xs)))
		put(k.String()+"_p90_ms", percentile(xs, 0.9), "ms", fmt.Sprintf("(n=%d)", len(xs)))
	}
	put("ops_per_s", float64(completed)/o.phase.Wall.Seconds(), "1/s",
		fmt.Sprintf("(%d completed in %.2fs)", completed, o.phase.Wall.Seconds()))
	put("goodput_ratio", ratio(float64(good), n), "ratio", fmt.Sprintf("(%d/%d correct, exact, within %v of due)", good, len(o.ops), goodputLimit))
	put("success_ratio", ratio(n-float64(failed), n), "ratio", fmt.Sprintf("(1 - failed_ratio; failed_ratio=%.4f = %d/%d)", ratio(float64(failed), n), failed, len(o.ops)))
	put("exact_ratio", ratio(n-float64(approx), n), "ratio", fmt.Sprintf("(1 - approx_ratio; approx_ratio=%.4f = %d/%d)", ratio(float64(approx), n), approx, len(o.ops)))
	put("cpu_ms_per_op", ratio(ms(o.phase.CPU), n), "ms", fmt.Sprintf("(%.1f ms CPU / %d ops)", ms(o.phase.CPU), len(o.ops)))
	put("peak_heap_mb", float64(o.phase.PeakHeap)/(1<<20), "MiB",
		fmt.Sprintf("(median over %d GC cycles of the cycle's peak HeapInuse; highest %.1f MiB)", o.phase.Cycles, float64(o.phase.MaxHeap)/(1<<20)))
	return out
}

// countFailed returns the number of failed operations and the first few
// failure messages.
func countFailed(ops []op) (int, []string) {
	var n int
	var msgs []string
	for i := range ops {
		op := &ops[i]
		if !op.failed() {
			continue
		}
		n++
		if len(msgs) < 5 {
			if op.err != nil {
				msgs = append(msgs, fmt.Sprintf("%s %s: %v", op.kind, op.q, op.err))
			} else {
				msgs = append(msgs, fmt.Sprintf("%s %s: %s", op.kind, op.q, op.mismatch))
			}
		}
	}
	return n, msgs
}

// writeResult prints the final result line.
func writeResult(w io.Writer, r resultLine) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}
