package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/frame"
	"repro/internal/randx"
)

// tableShape describes a generated table: blocks of four columns share a
// latent factor (so the view search has dependent columns to find), some
// columns are categorical levels of their block's factor, and some numeric
// columns carry NULLs.
type tableShape struct {
	cols      int
	catEvery  int // column c is categorical when c%catEvery == catEvery-1
	nullEvery int // numeric column c carries NULLs when c%nullEvery == nullEvery/2
	nullRate  float64
	chunkRows int
}

func (s tableShape) categorical(c int) bool { return c%s.catEvery == s.catEvery-1 }

func (s tableShape) nullable(c int) bool {
	return !s.categorical(c) && c%s.nullEvery == s.nullEvery/2
}

// colName names column c; categorical columns say so.
func (s tableShape) colName(c int) string {
	if s.categorical(c) {
		return fmt.Sprintf("k%03d", c)
	}
	return fmt.Sprintf("c%03d", c)
}

var levels = []string{"low", "mid", "high", "top"}

// genRows builds rows of shape s from seed. Batches generated with the
// same shape and different seeds share the schema and the distribution,
// so one can be appended to another.
func genRows(name string, s tableShape, seed uint64, rows int) *frame.Frame {
	r := randx.New(seed)
	b := frame.NewBuilder(name)
	b.SetChunkRows(s.chunkRows)
	blocks := (s.cols + 3) / 4
	factors := make([][]float64, blocks)
	for i := range factors {
		f := make([]float64, rows)
		for j := range f {
			f[j] = r.NormFloat64()
		}
		factors[i] = f
	}
	for c := 0; c < s.cols; c++ {
		f := factors[c/4]
		if s.categorical(c) {
			idx := b.AddCategorical(s.colName(c))
			for j := 0; j < rows; j++ {
				v := f[j] + 0.5*r.NormFloat64()
				level := min(len(levels)-1, max(0, int(math.Floor(v+2))))
				b.AppendStr(idx, levels[level])
			}
			continue
		}
		idx := b.AddNumeric(s.colName(c))
		loading := 0.9 - 0.15*float64(c%4)
		scale := 1 + float64(c%5)
		offset := float64(10 * (c%7 + 1))
		for j := 0; j < rows; j++ {
			if s.nullable(c) && r.Float64() < s.nullRate {
				b.AppendNull(idx)
				continue
			}
			b.AppendFloat(idx, offset+scale*(loading*f[j]+(1-loading)*r.NormFloat64()))
		}
	}
	return b.MustBuild()
}

// sortedValues returns the non-NULL values of numeric column c, sorted.
func sortedValues(f *frame.Frame, c int) []float64 {
	col := f.Col(c)
	vals := make([]float64, 0, col.Len())
	for i := 0; i < col.Len(); i++ {
		if !col.IsNull(i) {
			vals = append(vals, col.Float(i))
		}
	}
	sort.Float64s(vals)
	return vals
}

// rangeGen draws range predicates over a table's numeric columns.
type rangeGen struct {
	f       *frame.Frame
	cols    []int
	sorted  map[int][]float64
	minRows int
	seen    map[string]bool
}

func newRangeGen(f *frame.Frame, minRows int) *rangeGen {
	return &rangeGen{f: f, cols: f.NumericColumns(), sorted: map[int][]float64{}, minRows: minRows, seen: map[string]bool{}}
}

// rangeWidth is the share of a column's values a range predicate selects:
// fixed, so the cost of materialising a selection does not vary from
// query to query.
const rangeWidth = 0.2

// next returns a range query not returned before, selecting rangeWidth of
// the column's values, with at least minRows rows on each side of the split so
// the characterization cannot fail on selection size.
func (g *rangeGen) next(r *randx.Source) string {
	for attempt := 0; ; attempt++ {
		c := g.cols[r.Intn(len(g.cols))]
		vals, ok := g.sorted[c]
		if !ok {
			vals = sortedValues(g.f, c)
			g.sorted[c] = vals
		}
		q1 := r.Uniform(0, 1-rangeWidth)
		q2 := q1 + rangeWidth
		if len(vals) < 2 {
			continue
		}
		lo := vals[int(q1*float64(len(vals)-1))]
		hi := vals[int(q2*float64(len(vals)-1))]
		inside := sort.SearchFloat64s(vals, math.Nextafter(hi, math.Inf(1))) - sort.SearchFloat64s(vals, lo)
		sql := fmt.Sprintf("SELECT * FROM %s WHERE %s >= %s AND %s <= %s",
			g.f.Name(), g.f.Col(c).Name(), fmtFloat(lo), g.f.Col(c).Name(), fmtFloat(hi))
		if lo < hi && inside >= g.minRows && g.f.NumRows()-inside >= g.minRows && !g.seen[sql] {
			g.seen[sql] = true
			return sql
		}
		if attempt > 1000 {
			panic(fmt.Sprintf("perfbench: no usable range predicate on %s", g.f.Name()))
		}
	}
}

// fmtFloat renders v exactly, in a form the SQL lexer reads back bit for
// bit.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// scheduleHasher accumulates the generated inputs of a run — table
// fingerprints and every scheduled operation — into one hash.
type scheduleHasher struct{ lines []string }

func (h *scheduleHasher) add(format string, args ...any) {
	h.lines = append(h.lines, fmt.Sprintf(format, args...))
}

func (h *scheduleHasher) sum() string {
	d := sha256.New()
	for _, l := range h.lines {
		d.Write([]byte(l))
		d.Write([]byte{'\n'})
	}
	return hex.EncodeToString(d.Sum(nil))[:16]
}
