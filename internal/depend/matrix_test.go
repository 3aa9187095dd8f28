package depend

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/randx"
)

// wideShape describes a generated test table: every catEvery-th column is
// categorical with `levels` levels, and every nullEvery-th column that is
// not categorical is numeric with a NULL share of nullRate.
type wideShape struct {
	rows, cols          int
	catEvery, nullEvery int
	levels              int
	nullRate            float64
	chunkRows           int
}

func (s wideShape) categorical(c int) bool { return c%s.catEvery == s.catEvery-1 }

func (s wideShape) nullable(c int) bool {
	return !s.categorical(c) && c%s.nullEvery == s.nullEvery/2
}

// coldWideShape is the benchmark's cold_wide table: 4000×128, 12
// categorical columns and 13 numeric columns with 5% NULLs.
var coldWideShape = wideShape{rows: 4000, cols: 128, catEvery: 10, nullEvery: 10, levels: 4, nullRate: 0.05, chunkRows: 4096}

// wideFrame generates a table of shape s from seed: numeric columns load on
// one latent factor per block of four columns, categorical columns bin a
// noisy copy of their block's factor.
func wideFrame(s wideShape, seed uint64) *frame.Frame {
	r := randx.New(seed)
	b := frame.NewBuilder("wide")
	b.SetChunkRows(s.chunkRows)
	factors := make([][]float64, (s.cols+3)/4)
	for i := range factors {
		f := make([]float64, s.rows)
		for j := range f {
			f[j] = r.NormFloat64()
		}
		factors[i] = f
	}
	for c := 0; c < s.cols; c++ {
		f := factors[c/4]
		if s.categorical(c) {
			idx := b.AddCategorical(fmt.Sprintf("k%03d", c))
			for j := 0; j < s.rows; j++ {
				level := min(s.levels-1, max(0, int(math.Floor(f[j]+0.5*r.NormFloat64()+2))))
				b.AppendStr(idx, fmt.Sprintf("l%d", level))
			}
			continue
		}
		idx := b.AddNumeric(fmt.Sprintf("c%03d", c))
		loading := 0.9 - 0.15*float64(c%4)
		for j := 0; j < s.rows; j++ {
			if s.nullable(c) && r.Float64() < s.nullRate {
				b.AppendNull(idx)
				continue
			}
			b.AppendFloat(idx, float64(10*(c%7+1))+float64(1+c%5)*(loading*f[j]+(1-loading)*r.NormFloat64()))
		}
	}
	return b.MustBuild()
}

// edgeFrame is a table of awkward columns: NULL-bearing numeric and
// categorical columns, constant columns (with and without NULLs), ±Inf,
// heavy ties, an all-NULL numeric column, one with two non-NULL rows, and
// 1-, 2-, 3- and 9-level categoricals. rows may be as low as 1.
func edgeFrame(rows int, chunkRows int) *frame.Frame {
	r := randx.New(uint64(rows)*31 + 7)
	b := frame.NewBuilder("edge")
	b.SetChunkRows(chunkRows)
	type gen func(i int) (float64, bool) // value, NULL
	numeric := []struct {
		name string
		gen  gen
	}{
		{"x", func(i int) (float64, bool) { return r.NormFloat64(), false }},
		{"y", func(i int) (float64, bool) { return float64(i%7) + 0.1*r.NormFloat64(), false }},
		{"xnull", func(i int) (float64, bool) { return r.NormFloat64(), i%5 == 1 }},
		{"const", func(i int) (float64, bool) { return 3, false }},
		{"constnull", func(i int) (float64, bool) { return -2, i%3 == 0 }},
		{"inf", func(i int) (float64, bool) {
			if i%11 == 4 {
				return math.Inf(1), false
			}
			return r.NormFloat64(), false
		}},
		{"mixedinf", func(i int) (float64, bool) {
			switch i % 13 {
			case 2:
				return math.Inf(1), false
			case 9:
				return math.Inf(-1), false
			}
			return r.NormFloat64(), i%4 == 3
		}},
		{"allnull", func(i int) (float64, bool) { return 0, true }},
		{"sparse", func(i int) (float64, bool) { return float64(i), i > 1 }},
		{"ties", func(i int) (float64, bool) { return float64(i % 3), false }},
		{"heavynull", func(i int) (float64, bool) { return float64(i%4) * r.NormFloat64(), i%2 == 0 }},
	}
	categorical := []struct {
		name string
		gen  func(i int) (string, bool)
	}{
		{"k", func(i int) (string, bool) { return []string{"a", "b", "c"}[i%3], false }},
		{"knull", func(i int) (string, bool) { return []string{"p", "q"}[(i/2)%2], i%6 == 5 }},
		{"kone", func(i int) (string, bool) { return "only", false }},
		{"kwide", func(i int) (string, bool) { return fmt.Sprintf("w%d", r.Intn(9)), false }},
	}
	nIdx := make([]int, len(numeric))
	for k, c := range numeric {
		nIdx[k] = b.AddNumeric(c.name)
	}
	cIdx := make([]int, len(categorical))
	for k, c := range categorical {
		cIdx[k] = b.AddCategorical(c.name)
	}
	for i := 0; i < rows; i++ {
		for k, c := range numeric {
			if v, null := c.gen(i); null {
				b.AppendNull(nIdx[k])
			} else {
				b.AppendFloat(nIdx[k], v)
			}
		}
		for k, c := range categorical {
			if v, null := c.gen(i); null {
				b.AppendNull(cIdx[k])
			} else {
				b.AppendStr(cIdx[k], v)
			}
		}
	}
	return b.MustBuild()
}

// TestMatrixMatchesPairwise is the differential rail for the matrix's
// blocked pair loops: for every measure and worker count, each cell (i, j)
// must equal Pairwise(column min(i,j), column max(i,j)) bit for bit.
func TestMatrixMatchesPairwise(t *testing.T) {
	frames := map[string]*frame.Frame{
		"edge-1row":   edgeFrame(1, 64),
		"edge-2rows":  edgeFrame(2, 64),
		"edge-3rows":  edgeFrame(3, 64),
		"edge-200":    edgeFrame(200, 64),
		"edge-1000":   edgeFrame(1000, 0),
		"wide-37cols": wideFrame(wideShape{rows: 300, cols: 37, catEvery: 10, nullEvery: 10, levels: 4, nullRate: 0.05, chunkRows: 128}, 3),
		// Every 3rd column categorical, every 4th NULL-bearing: dense
		// numeric counts that are not a multiple of any tile width.
		"wide-23cols": wideFrame(wideShape{rows: 257, cols: 23, catEvery: 3, nullEvery: 4, levels: 3, nullRate: 0.2, chunkRows: 64}, 5),
	}
	for dense := 1; dense <= 9; dense++ {
		frames[fmt.Sprintf("dense-%d", dense)] = wideFrame(wideShape{rows: 65, cols: dense, catEvery: 1000, nullEvery: 1000, levels: 2}, uint64(dense))
	}
	for name, f := range frames {
		for _, m := range []Measure{AbsPearson, AbsSpearman, NormalizedMI} {
			for _, workers := range []int{1, 2, 3} {
				got := NewMatrixParallel(f, m, workers)
				for i := 0; i < f.NumCols(); i++ {
					for j := 0; j < f.NumCols(); j++ {
						want := 1.0
						if i != j {
							want = Pairwise(f.Col(min(i, j)), f.Col(max(i, j)), m)
						}
						if math.Float64bits(got.At(i, j)) != math.Float64bits(want) {
							t.Fatalf("%s %v workers=%d: cell (%s,%s) = %v, want Pairwise %v",
								name, m, workers, f.Col(i).Name(), f.Col(j).Name(), got.At(i, j), want)
						}
					}
				}
			}
		}
	}
}

// TestMatrixPairLoopsDoNotAllocate asserts that the pair phase allocates
// nothing per pair: a 64-column table makes exactly as many allocations as
// a 32-column table of the same mix, although it has four times the pairs.
func TestMatrixPairLoopsDoNotAllocate(t *testing.T) {
	allocs := func(cols int) float64 {
		f := wideFrame(wideShape{rows: 500, cols: cols, catEvery: 10, nullEvery: 10, levels: 4, nullRate: 0.05, chunkRows: 256}, 11)
		return testing.AllocsPerRun(5, func() { NewMatrixParallel(f, AbsPearson, 1) })
	}
	if a32, a64 := allocs(32), allocs(64); a32 != a64 {
		t.Fatalf("NewMatrixParallel allocates %v objects at 32 columns but %v at 64", a32, a64)
	}
}

// matrixSink keeps the benchmarked matrices alive.
var matrixSink *Matrix

// BenchmarkDependMatrix times the dependency matrix on the cold_wide table
// (4000×128), one pair shape per sub-benchmark, at one worker so allocs/op
// are deterministic:
//
//   - dense-pearson: the 103 NULL-free numeric columns under AbsPearson.
//   - null-pearson: the 13 NULL-bearing numeric columns and the first 13
//     NULL-free ones; most pairs have a NULL on one side.
//   - eta: the 12 categorical columns and the first 24 NULL-free numeric
//     ones; most pairs are categorical × numeric.
//   - spearman: the 103 NULL-free numeric columns under AbsSpearman.
//   - full: the whole table under AbsPearson.
func BenchmarkDependMatrix(b *testing.B) {
	f := wideFrame(coldWideShape, 1)
	var dense, nullable, cats []string
	for c := 0; c < f.NumCols(); c++ {
		name := f.Col(c).Name()
		switch {
		case coldWideShape.categorical(c):
			cats = append(cats, name)
		case coldWideShape.nullable(c):
			nullable = append(nullable, name)
		default:
			dense = append(dense, name)
		}
	}
	sub := func(names ...[]string) *frame.Frame {
		var all []string
		for _, n := range names {
			all = append(all, n...)
		}
		s, err := f.Select(all...)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name string
		f    *frame.Frame
		m    Measure
	}{
		{"dense-pearson", sub(dense), AbsPearson},
		{"null-pearson", sub(nullable, dense[:13]), AbsPearson},
		{"eta", sub(cats, dense[:24]), AbsPearson},
		{"spearman", sub(dense), AbsSpearman},
		{"full", f, AbsPearson},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			NewMatrixParallel(c.f, c.m, 1) // seal the columns outside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matrixSink = NewMatrixParallel(c.f, c.m, 1)
			}
		})
	}
}
