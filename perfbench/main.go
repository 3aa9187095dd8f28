// Command perfbench is the repository benchmark: three workloads run
// against the real serving stack, timed from outside the program, with
// every answer checked against an independent reference engine.
//
//	python3 perfbench/run.py --workload explore_http --seed 1 --seconds 20 --trace 0
//
// run.py builds this package and passes its arguments through. With
// --trace 0 the last line of standard output is a JSON object holding the
// end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
// separate traced run. Lines before it describe the machine, the pinned
// configuration, the inputs' hash and every metric with its sample count.
//
// The workloads, and why each exists:
//
//   - explore_http: the paper's Figure 5 serving path. Independent
//     explorers send new range predicates (40%) and Zipf-skewed repeats of
//     earlier ones (60%) to the demo server on loopback HTTP, open loop at a
//     fixed Poisson rate, after a history of 128 queries has filled the
//     report cache. Time goes to server JSON, db selection, the shard
//     probe, the report cache and the engine's column split and search;
//     depend, frame and remote do no work in the timed phase. Repeat share
//     0.60, report-cache hit ratio about 0.48 (four fifths of the repeats
//     hit): a change that helps only repeated queries acts on at most that
//     share.
//   - cold_wide: the CLI user's first question about a new 4000×128 table
//     (10% categorical columns, 10% numeric columns with 5% NULLs), closed
//     loop, one client. Every operation misses the prepared cache, so the
//     dependency matrix, clustering, column split and ranking dominate.
//     Each question is asked twice: repeat share 0.50, report-cache hit
//     ratio 0.50.
//   - append_remote: appends beside reads through a session routing to two
//     remote workers over loopback HTTP, closed loop, a fixed number of
//     rounds. Each round appends 1000 rows to one of two 40000×16 tables,
//     asks a standing query (append_*), asks it twice more (repeat_*) and
//     asks one new selection (fresh_*). Frame append, the manifest and
//     chunk transport, worker compute and the full dependency recompute
//     dominate. Repeat share 0.50, report-cache hit ratio 0.50.
//
// explore_http and cold_wide do not append; their append_* metrics come
// from a fixed in-process append probe run after the timed phase (see
// appendProbe), which leaves their per-layer predictions untouched.
//
// An end-to-end metric's regression bound is a share of its median, so no
// end-to-end metric may read 0: the failed and approximate shares are
// reported as success_ratio (1 − failed share) and exact_ratio (1 −
// approximate share); the lines before the result print failed_ratio and
// approx_ratio as well.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// pinnedProcs is the GOMAXPROCS every run uses, so a result means the same
// on machines with more cores. It is twice the reference machine's nproc:
// with GOMAXPROCS equal to the core count, CPU-bound engine goroutines
// hold every P and the in-process load generator's timer wake-ups wait up
// to the Go scheduler's 10 ms preemption tick (measured: generator lag
// p90 5–9 ms at 40% load); spare Ps leave that scheduling to the kernel.
const pinnedProcs = 4

// runEnv is one invocation's settings.
type runEnv struct {
	seed      uint64
	seconds   int
	tr        *tracer // nil: untraced
	setupReps int
	// capacity sends explore_http's schedule closed loop, to measure the
	// capacity its open-loop rate is set from.
	capacity bool
	// refs holds the reference answers computed so far: the untraced and
	// traced passes of one invocation ask the same queries.
	refs map[query][]byte
}

// cached memoizes a workload's reference in env.refs.
func (env *runEnv) cached(reference func(query) ([]byte, error)) func(query) ([]byte, error) {
	return func(q query) ([]byte, error) {
		if ref, ok := env.refs[q]; ok {
			return ref, nil
		}
		ref, err := reference(q)
		if err == nil {
			env.refs[q] = ref
		}
		return ref, err
	}
}

type workload struct {
	name string
	run  func(env *runEnv) (*outcome, error)
	// setupReps is how many times an untraced run sets up; setup_s is the
	// median.
	setupReps int
	// appends reports whether the workload appends itself; otherwise the
	// append probe supplies append_*.
	appends bool
	// openLoop workloads report generator lag and are invalid when it
	// exceeds lagLimitShare of fresh_p50_ms.
	openLoop bool
	config   func() map[string]any
}

var workloads = []workload{
	{name: "explore_http", run: runExplore, setupReps: 3, openLoop: true, config: func() map[string]any {
		cfg, p := exploreConfig()
		return map[string]any{
			"parallelism": cfg.Parallelism, "shards": cfg.Shards, "concurrency": p.Concurrency, "queue_depth": p.QueueDepth,
			"cache_entries": cfg.CacheEntries, "cache_bytes": cfg.CacheBytes, "approx_rows": cfg.ApproxRows,
			"approx_under_pressure": cfg.ApproxUnderPressure, "chunk_rows": "frame default (4096)",
			"rate_per_s": exploreRate, "fresh_share": float64(exploreFresh) / exploreBlock, "zipf_s": exploreZipfS, "clients": exploreClients,
		}
	}},
	{name: "cold_wide", run: runColdWide, setupReps: wideSetupReps, config: func() map[string]any {
		cfg, p := wideConfig()
		return map[string]any{
			"parallelism": cfg.Parallelism, "shards": cfg.Shards, "concurrency": p.Concurrency, "queue_depth": p.QueueDepth,
			"cache_entries": cfg.CacheEntries, "cache_bytes": cfg.CacheBytes, "robust": cfg.Robust,
			"chunk_rows": wideShape.chunkRows, "rows": wideRows, "cols": wideShape.cols, "ops_per_second": wideOpsPerSecond,
		}
	}},
	{name: "append_remote", run: runAppendRemote, setupReps: 5, appends: true, config: func() map[string]any {
		front, worker, p := remoteConfigs()
		return map[string]any{
			"workers": front.Shards, "worker_parallelism": worker.Parallelism, "worker_shards": worker.Shards,
			"concurrency": p.Concurrency, "queue_depth": p.QueueDepth, "cache_entries": worker.CacheEntries,
			"cache_bytes": worker.CacheBytes, "chunk_rows": remoteShape.chunkRows, "base_rows": remoteBaseRows,
			"batch_rows": remoteBatchRows, "rounds_per_second": remoteRoundsPerSecond,
		}
	}},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: explore_http, cold_wide or append_remote")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	capacity := fs.Bool("capacity", false, "explore_http only: send closed loop and report throughput")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (explore_http|cold_wide|append_remote), --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(pinnedProcs)

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	mach := currentMachine()
	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(out, "machine %s\n", mustJSON(mach))
	fmt.Fprintf(out, "config %s\n", mustJSON(w.config()))
	warnIfOtherMachine(stderr, mach)

	env := &runEnv{seed: *seed, seconds: *seconds, setupReps: w.setupReps, capacity: *capacity, refs: map[query][]byte{}}
	res, err := measure(out, w, env, *trace == 1)
	if err != nil {
		out.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := writeResult(out, *res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload and assembles the result line.
func measure(out io.Writer, w *workload, env *runEnv, traced bool) (*resultLine, error) {
	t0 := time.Now()
	o, err := w.run(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "run took %.1fs (set-up, timed phase and verification)\n", time.Since(t0).Seconds())
	fmt.Fprintf(out, "schedule_hash %s\n", o.scheduleHash)
	fmt.Fprintf(out, "repeat_share %.4f report_hit_ratio %.4f\n", o.repeatShare, o.reportHitRatio)
	var metrics map[string]metric
	if traced {
		// The untraced pass above is the baseline of the overhead ratio;
		// the traced pass runs the same inputs on a fresh stack. Machine
		// speed drifts between the passes move the ratio too, so read it
		// together with the spread of the untraced runs.
		env.tr, env.setupReps = newTracer(), 1
		t, err := w.run(env)
		if err != nil {
			return nil, err
		}
		t.layers.set("bench.tracing_overhead_ratio", ratio(meanLatency(t.ops), meanLatency(o.ops)), "ratio",
			fmt.Sprintf("(traced %.3f ms / untraced %.3f ms mean op latency)", meanLatency(t.ops), meanLatency(o.ops)))
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, env.seed))
		if err := writeSpans(path, t.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "traced run: %d spans written to %s; by name:\n", len(t.spans), path)
		t.layers.print(out, t.spans)
		metrics = t.layers.vals
		o.untimed = append(append(o.untimed, t.ops...), t.untimed...)
	} else {
		if !w.appends {
			probe, err := appendProbe(env.seed)
			if err != nil {
				return nil, fmt.Errorf("append probe: %w", err)
			}
			o.untimed = append(o.untimed, probe...)
		}
		if env.capacity {
			fmt.Fprintf(out, "capacity %.2f requests/s\n", float64(len(o.ops))/o.phase.Wall.Seconds())
		}
		fmt.Fprintln(out, "end-to-end metrics:")
		metrics = endToEnd(out, o)
		if w.openLoop {
			fresh := metrics["fresh_p50_ms"].Value
			fmt.Fprintf(out, "generator lag p90 %.3f ms (limit %.3f ms = %.2f × fresh_p50_ms)\n", o.lagP90, lagLimitShare*fresh, lagLimitShare)
			if o.lagP90 > lagLimitShare*fresh {
				return nil, fmt.Errorf("invalid run: generator lag p90 %.3f ms exceeds %.2f × fresh_p50_ms", o.lagP90, lagLimitShare)
			}
		}
	}
	all := append(o.ops, o.untimed...)
	failed, msgs := countFailed(all)
	for _, m := range msgs {
		fmt.Fprintf(out, "FAILED %s\n", m)
	}
	return &resultLine{Correct: failed == 0, Attempted: len(all), Failed: failed, Metrics: metrics}, nil
}

// meanLatency is the mean latency (ms) of the successful ops.
func meanLatency(ops []op) float64 {
	var xs []float64
	for i := range ops {
		if !ops[i].failed() {
			xs = append(xs, ms(ops[i].lat))
		}
	}
	return mean(xs)
}

// machine is recorded with every result.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	OS         string `json:"os_arch"`
}

func currentMachine() machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: pinnedProcs,
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// machineFile records the machine of the previous run in this checkout's
// build directory.
var machineFile = filepath.Join(".bench_build", "perfbench-machine.json")

// warnIfOtherMachine compares the machine with the one the previous run in
// this checkout recorded, warns loudly when they differ (results from
// different machines are not comparable), and records the current one.
func warnIfOtherMachine(stderr io.Writer, m machine) {
	if data, err := os.ReadFile(machineFile); err == nil {
		var prev machine
		if json.Unmarshal(data, &prev) == nil && prev != m {
			fmt.Fprintf(stderr, "%s\nWARNING: this run's machine differs from the previous run's in this checkout.\n"+
				"  previous: %s\n  current:  %s\nResults from different machines are NOT comparable.\n%s\n",
				strings.Repeat("!", 72), mustJSON(prev), mustJSON(m), strings.Repeat("!", 72))
		}
	}
	if err := os.MkdirAll(filepath.Dir(machineFile), 0o755); err == nil {
		_ = os.WriteFile(machineFile, []byte(mustJSON(m)), 0o644) // best effort: only the next run's warning depends on it
	}
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%v", v)
	}
	return string(data)
}
