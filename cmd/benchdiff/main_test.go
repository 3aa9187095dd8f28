package main

import (
	"regexp"
	"strings"
	"testing"
)

// sampleOutput mimics a real `go test -bench -count 3` run: repeated lines
// per benchmark, sub-benchmarks, GOMAXPROCS suffixes, extra metrics, and
// noise lines that must be ignored.
const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkCharacterizeParallel/parallelism=1-4         	       3	 509000000 ns/op
BenchmarkCharacterizeParallel/parallelism=1-4         	       3	 520000000 ns/op
BenchmarkCharacterizeParallel/parallelism=1-4         	       3	 512000000 ns/op
BenchmarkCharacterizeCached-4                         	       3	      2100 ns/op	     312 B/op	       5 allocs/op
BenchmarkCharacterizeCached-4                         	       3	      1980 ns/op	     312 B/op	       5 allocs/op
BenchmarkRobustCharacterize/warm-4                    	       3	 253000000 ns/op	       126.0 rankops/op
BenchmarkShardedThroughput/shards=2                   	       3	    300300 ns/op
PASS
ok  	repro	12.3s
`

func TestParseBench(t *testing.T) {
	f, err := parseBench(sampleOutput)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		ns      float64
		samples int
	}{
		"BenchmarkCharacterizeParallel/parallelism=1": {509000000, 3},
		"BenchmarkCharacterizeCached":                 {1980, 2},
		"BenchmarkRobustCharacterize/warm":            {253000000, 1},
		"BenchmarkShardedThroughput/shards=2":         {300300, 1},
	}
	if len(f.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", len(f.Benchmarks), len(want), f.Benchmarks)
	}
	for _, b := range f.Benchmarks {
		w, ok := want[b.Name]
		if !ok {
			t.Errorf("unexpected benchmark %q (GOMAXPROCS suffix not stripped?)", b.Name)
			continue
		}
		if b.NsPerOp != w.ns {
			t.Errorf("%s: ns/op = %v, want the minimum %v", b.Name, b.NsPerOp, w.ns)
		}
		if b.Samples != w.samples {
			t.Errorf("%s: samples = %d, want %d", b.Name, b.Samples, w.samples)
		}
	}
	for _, b := range f.Benchmarks {
		want := "Intel(R) Xeon(R) Processor @ 2.70GHz, linux/amd64, GOMAXPROCS=4"
		if b.Name == "BenchmarkShardedThroughput/shards=2" {
			want = "Intel(R) Xeon(R) Processor @ 2.70GHz, linux/amd64, GOMAXPROCS=1"
		}
		if b.Machine != want {
			t.Errorf("%s: machine = %q, want %q", b.Name, b.Machine, want)
		}
	}
	// Output is sorted by name for stable diffs.
	for i := 1; i < len(f.Benchmarks); i++ {
		if f.Benchmarks[i-1].Name > f.Benchmarks[i].Name {
			t.Fatalf("output not sorted: %q after %q", f.Benchmarks[i].Name, f.Benchmarks[i-1].Name)
		}
	}
}

func bench(name string, ns float64) Benchmark {
	return Benchmark{Name: name, NsPerOp: ns, Samples: 3}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	baseline := File{Benchmarks: []Benchmark{bench("A", 100), bench("B", 1000)}}
	current := File{Benchmarks: []Benchmark{bench("A", 199), bench("B", 500)}}
	rows, failures, extras := compare(baseline, current, 2.0, nil)
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	if len(rows) != 2 || len(extras) != 0 {
		t.Fatalf("rows=%d extras=%d, want 2/0", len(rows), len(extras))
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	baseline := File{Benchmarks: []Benchmark{bench("A", 100), bench("B", 1000)}}
	current := File{Benchmarks: []Benchmark{bench("A", 201), bench("B", 900)}}
	_, failures, _ := compare(baseline, current, 2.0, nil)
	if len(failures) != 1 || !strings.Contains(failures[0], "A") {
		t.Fatalf("failures = %v, want exactly the regression on A", failures)
	}
}

func TestCompareFailsOnMissingBenchmark(t *testing.T) {
	baseline := File{Benchmarks: []Benchmark{bench("A", 100), bench("Gone", 50)}}
	current := File{Benchmarks: []Benchmark{bench("A", 100)}}
	_, failures, _ := compare(baseline, current, 2.0, nil)
	if len(failures) != 1 || !strings.Contains(failures[0], "Gone") {
		t.Fatalf("failures = %v, want the missing benchmark", failures)
	}
}

func TestCompareReportsNewBenchmarks(t *testing.T) {
	baseline := File{Benchmarks: []Benchmark{bench("A", 100)}}
	current := File{Benchmarks: []Benchmark{bench("A", 100), bench("New", 10)}}
	_, failures, extras := compare(baseline, current, 2.0, nil)
	if len(failures) != 0 {
		t.Fatalf("new benchmark must not fail the gate: %v", failures)
	}
	if len(extras) != 1 || extras[0] != "New" {
		t.Fatalf("extras = %v, want [New]", extras)
	}
}

func TestParseCompareRoundTrip(t *testing.T) {
	f, err := parseBench(sampleOutput)
	if err != nil {
		t.Fatal(err)
	}
	rows, failures, extras := compare(f, f, 2.0, nil)
	if len(failures) != 0 || len(extras) != 0 {
		t.Fatalf("self-comparison failed: failures=%v extras=%v", failures, extras)
	}
	for _, r := range rows {
		if r.ratio != 1 {
			t.Errorf("%s: self-comparison ratio %v, want 1", r.name, r.ratio)
		}
	}
}

func benchAllocs(name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, NsPerOp: ns, Samples: 3, AllocsPerOp: &allocs}
}

// TestParseAllocs pins allocs/op extraction: the -benchmem column is folded
// to its per-name minimum, and lines without it leave the field unset.
func TestParseAllocs(t *testing.T) {
	f, err := parseBench(sampleOutput)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Benchmark{}
	for _, b := range f.Benchmarks {
		byName[b.Name] = b
	}
	cached := byName["BenchmarkCharacterizeCached"]
	if cached.AllocsPerOp == nil || *cached.AllocsPerOp != 5 {
		t.Errorf("cached AllocsPerOp = %v, want 5", cached.AllocsPerOp)
	}
	if plain := byName["BenchmarkCharacterizeParallel/parallelism=1"]; plain.AllocsPerOp != nil {
		t.Errorf("benchmark without -benchmem output parsed AllocsPerOp = %v, want unset", *plain.AllocsPerOp)
	}
}

// TestCompareAllocsRegression pins the allocation gate: more allocs/op than
// baseline fails with no threshold slack, fewer passes, and a current run
// that lost the metric entirely fails rather than silently disarming.
func TestCompareAllocsRegression(t *testing.T) {
	baseline := File{Benchmarks: []Benchmark{benchAllocs("A", 100, 3), benchAllocs("B", 100, 3), bench("C", 100)}}
	current := File{Benchmarks: []Benchmark{benchAllocs("A", 100, 4), benchAllocs("B", 100, 2), bench("C", 100)}}
	_, failures, _ := compare(baseline, current, 2.0, nil)
	if len(failures) != 1 || !strings.Contains(failures[0], "A") || !strings.Contains(failures[0], "allocs/op") {
		t.Fatalf("failures = %v, want exactly the allocs regression on A", failures)
	}
	lost := File{Benchmarks: []Benchmark{bench("A", 100), benchAllocs("B", 100, 3), bench("C", 100)}}
	_, failures, _ = compare(baseline, lost, 2.0, nil)
	if len(failures) != 1 || !strings.Contains(failures[0], "-benchmem") {
		t.Fatalf("failures = %v, want the missing-metric failure on A", failures)
	}
}

// TestCompareZeroAllocsGate pins the -zero-allocs contract: matching
// benchmarks must report exactly 0 allocs/op, an unmeasured match fails,
// and a pattern matching nothing fails (a renamed benchmark must not
// silently disarm the gate). The gate also covers benchmarks that have no
// baseline entry yet.
func TestCompareZeroAllocsGate(t *testing.T) {
	zero := regexp.MustCompile(`^BenchmarkKernels/kernel=(radix|counting)`)
	baseline := File{Benchmarks: []Benchmark{benchAllocs("BenchmarkKernels/kernel=radix", 100, 0)}}
	ok := File{Benchmarks: []Benchmark{
		benchAllocs("BenchmarkKernels/kernel=radix", 100, 0),
		benchAllocs("BenchmarkKernels/kernel=counting", 100, 0), // new, no baseline
		benchAllocs("BenchmarkKernels/kernel=fallback", 100, 7), // not matched: may allocate
	}}
	if _, failures, _ := compare(baseline, ok, 2.0, zero); len(failures) != 0 {
		t.Fatalf("clean zero-alloc run failed: %v", failures)
	}
	leaky := File{Benchmarks: []Benchmark{
		benchAllocs("BenchmarkKernels/kernel=radix", 100, 1),
		benchAllocs("BenchmarkKernels/kernel=counting", 100, 0),
	}}
	_, failures, _ := compare(baseline, leaky, 2.0, zero)
	if len(failures) != 2 { // 1 vs baseline 0, plus the zero-allocs violation
		t.Fatalf("failures = %v, want the alloc regression and the zero-allocs violation", failures)
	}
	unmeasured := File{Benchmarks: []Benchmark{benchAllocs("BenchmarkKernels/kernel=radix", 100, 0), bench("BenchmarkKernels/kernel=counting", 100)}}
	_, failures, _ = compare(baseline, unmeasured, 2.0, zero)
	if len(failures) != 1 || !strings.Contains(failures[0], "-benchmem") {
		t.Fatalf("failures = %v, want the unmeasured-match failure", failures)
	}
	renamed := File{Benchmarks: []Benchmark{benchAllocs("BenchmarkKernels/kernel=radix", 100, 0)}}
	_, failures, _ = compare(File{}, renamed, 2.0, regexp.MustCompile(`^BenchmarkGone`))
	if len(failures) != 1 || !strings.Contains(failures[0], "matched no benchmark") {
		t.Fatalf("failures = %v, want the no-match failure", failures)
	}
}

// TestMergeTracksAllocs pins allocs propagation through update: a run entry
// carrying allocs/op replaces an unmeasured baseline entry and the change
// is logged.
func TestMergeTracksAllocs(t *testing.T) {
	baseline := File{Benchmarks: []Benchmark{bench("A", 100)}}
	run := File{Benchmarks: []Benchmark{benchAllocs("A", 100, 0)}}
	merged, changes := merge(baseline, run)
	if merged.Benchmarks[0].AllocsPerOp == nil || *merged.Benchmarks[0].AllocsPerOp != 0 {
		t.Fatalf("merged entry = %+v, want allocs 0", merged.Benchmarks[0])
	}
	if len(changes) != 1 || !strings.Contains(changes[0], "allocs/op") {
		t.Fatalf("changes = %v, want the allocs change", changes)
	}
	if _, again := merge(merged, run); len(again) != 0 {
		t.Fatalf("re-merge reported changes: %v", again)
	}
}

// TestParseRejectsAmbiguousNames pins the guard against the inherent
// ambiguity of GOMAXPROCS-suffix stripping: a sub-benchmark named with a
// trailing -<digits> would fold into another name on a suffix-less
// (GOMAXPROCS=1) machine, so the parser must fail loudly instead of
// silently merging distinct benchmarks.
func TestParseRejectsAmbiguousNames(t *testing.T) {
	const ambiguous = `BenchmarkX/rows-100         	       3	      1000 ns/op
BenchmarkX/rows-1000        	       3	      2000 ns/op
`
	if _, err := parseBench(ambiguous); err == nil {
		t.Fatal("distinct names folding onto one stripped name must fail parsing")
	}
	// The same names WITH a procs suffix stay distinct and parse fine.
	const suffixed = `BenchmarkX/rows-100-4       	       3	      1000 ns/op
BenchmarkX/rows-1000-4      	       3	      2000 ns/op
`
	f, err := parseBench(suffixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(f.Benchmarks), f.Benchmarks)
	}
}

// TestMergeUpdatesAndPreserves pins the update subcommand's core: run
// entries replace or join baseline entries, baseline entries the run does
// not mention survive (the CI bench job only runs a subset), and the
// change log names exactly what moved.
func TestMergeUpdatesAndPreserves(t *testing.T) {
	baseline := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkKept", NsPerOp: 100, Samples: 3},
		{Name: "BenchmarkFaster", NsPerOp: 500, Samples: 3},
	}}
	run := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkFaster", NsPerOp: 250, Samples: 3},
		{Name: "BenchmarkNew", NsPerOp: 42, Samples: 3},
	}}
	merged, changes := merge(baseline, run)
	byName := map[string]float64{}
	for _, b := range merged.Benchmarks {
		byName[b.Name] = b.NsPerOp
	}
	if len(merged.Benchmarks) != 3 {
		t.Fatalf("merged %d benchmarks, want 3: %+v", len(merged.Benchmarks), merged.Benchmarks)
	}
	if byName["BenchmarkKept"] != 100 || byName["BenchmarkFaster"] != 250 || byName["BenchmarkNew"] != 42 {
		t.Errorf("merged values = %v", byName)
	}
	if len(changes) != 2 {
		t.Errorf("change log = %v, want the update and the new entry", changes)
	}
	// Idempotent: merging the same run again changes nothing.
	again, changes2 := merge(merged, run)
	if len(changes2) != 0 {
		t.Errorf("re-merge reported changes: %v", changes2)
	}
	if len(again.Benchmarks) != 3 {
		t.Errorf("re-merge changed the entry count to %d", len(again.Benchmarks))
	}
	// Names stay sorted, matching the parse output convention.
	for i := 1; i < len(again.Benchmarks); i++ {
		if again.Benchmarks[i-1].Name > again.Benchmarks[i].Name {
			t.Errorf("merged output not sorted: %+v", again.Benchmarks)
		}
	}
}
