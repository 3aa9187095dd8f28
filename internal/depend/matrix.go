package depend

import (
	"math"
	"math/bits"

	"repro/internal/frame"
	"repro/internal/par"
	"repro/internal/stats"
)

// NewMatrix computes pairwise dependencies for all column pairs of f under
// measure m. The diagonal is 1.
func NewMatrix(f *frame.Frame, m Measure) *Matrix {
	return NewMatrixParallel(f, m, 1)
}

// NewMatrixParallel is NewMatrix with the pair phase (the dominant
// preparation-stage cost: O(cols²) statistics over all rows) sharded
// across `workers` goroutines. workers < 1 means all CPUs; an effective
// count of 1 computes inline with no goroutines.
//
// Cell (i, j) equals Pairwise(column min(i,j), column max(i,j), m) bit for
// bit, for every worker count: each per-column statistic is computed once,
// and the blocked pair loops (see the package documentation) add every
// term in the order Pairwise does. Each task — a tile panel, a block row or
// one column's remaining pairs — writes only its own cells, and the pair
// phase allocates nothing per pair.
func NewMatrixParallel(f *frame.Frame, m Measure, workers int) *Matrix {
	workers = par.Workers(workers)
	n := f.NumCols()
	mat := &Matrix{names: f.ColumnNames(), vals: make([]float64, n*n), n: n}
	for i := 0; i < n; i++ {
		mat.vals[i*n+i] = 1
	}
	p := newPairPlan(f, m, workers)
	par.For(workers, p.tasks(), func(w, t int) { p.run(mat, &p.scratch[w], t) })
	return mat
}

// colStats is the per-column precomputation shared by every pair task.
type colStats struct {
	numeric bool
	floats  []float64
	// valid holds the non-NULL bitmap words of a NULL-bearing numeric
	// column (bit i&63 of word i>>6 set when row i is non-NULL); nil when
	// the column has no NULLs.
	valid []uint64
	// count is the number of non-NULL rows.
	count int
	// vec is the tile kernel's input, set for NULL-free numeric columns
	// with ≥ 3 rows under AbsPearson (the values) and AbsSpearman (the
	// rank-once vector: the column's complete cases with any NULL-free
	// partner are the whole column, so its ranks are the ranks Pairwise
	// computes). NULL-bearing columns keep per-pair ranking under
	// AbsSpearman, because their complete cases differ per partner.
	vec []float64
	// mean and ss are Pearson's centring moments, Mean and Σ(x−mean)² in
	// row order: over vec when it is set, and over the non-NULL values of
	// a NULL-bearing column under AbsPearson.
	mean, ss float64
	// total is the Welford accumulation of the non-NULL values that η
	// builds when its categorical column is NULL-free; set when some η
	// block reads it.
	total stats.Moments

	codes []int32
	card  int
	// eta marks a NULL-free categorical column with ≥ 2 levels, whose
	// numeric pairs run as η blocks.
	eta bool
}

// pairPlan is the pair phase's schedule: the per-column statistics, the
// column roles that pick each pair's kernel, and per-worker scratch.
type pairPlan struct {
	f    *frame.Frame
	m    Measure
	cols []colStats
	// dense lists the columns with a tile vector; free the NULL-free
	// numeric columns; nullNum the NULL-bearing numeric columns; masked
	// is nullNum under AbsPearson, whose NULL-bearing × NULL-free pairs
	// run as masked blocks, and empty otherwise; etaCats the η columns.
	// All ascending.
	dense, free, masked, nullNum, etaCats []int
	// bufLen sizes each worker's group-sum and contingency buffer;
	// maxCard is the largest categorical cardinality.
	bufLen, maxCard int
	scratch         []pairScratch
}

// pairScratch holds one worker's buffers.
type pairScratch struct {
	xs, ys []float64 // complete-case gathers
	buf    []float64 // group sums and counts, contingency tables
	order  []int32   // row numbers sorted by level
	ends   []int     // each level's end in order
}

// groups returns the worker's buffer, allocating it at full size on first
// use.
func (p *pairPlan) groups(s *pairScratch) []float64 {
	if s.buf == nil {
		s.buf = make([]float64, p.bufLen)
	}
	return s.buf
}

// levelOrder counting-sorts the rows of a NULL-free categorical column by
// level into the worker's scratch: level g's rows are order[ends[g-1]:
// ends[g]] (from 0 for g = 0), ascending, so summing a column over them
// visits each level's rows in row order.
func (p *pairPlan) levelOrder(s *pairScratch, codes []int32, card int) (order []int32, ends []int) {
	if s.order == nil {
		s.order = make([]int32, p.f.NumRows())
		s.ends = make([]int, p.maxCard)
	}
	ends = s.ends[:card]
	clear(ends)
	for _, g := range codes {
		ends[g]++
	}
	start := 0
	for g, c := range ends {
		ends[g] = start
		start += c
	}
	order = s.order[:len(codes)]
	for r, g := range codes {
		order[ends[g]] = int32(r)
		ends[g]++
	}
	return order, ends
}

// Tile and block widths. A 4×2 tile's eight accumulators and the values
// of the row in flight fit amd64's sixteen XMM registers.
const (
	tileRows = 4
	tileCols = 2
	block    = 4
)

func newPairPlan(f *frame.Frame, m Measure, workers int) *pairPlan {
	n := f.NumCols()
	p := &pairPlan{f: f, m: m, cols: make([]colStats, n), scratch: make([]pairScratch, workers)}
	// The role lists are sized up front so that building them allocates
	// the same for every column count.
	p.etaCats = make([]int, 0, n)
	top1, top2 := 0, 0
	for i := 0; i < n; i++ {
		c := f.Col(i)
		cs := &p.cols[i]
		if c.Kind() != frame.Categorical {
			continue
		}
		cs.codes, cs.card = c.Codes(), c.Cardinality()
		cs.eta = cs.card >= 2 && c.NullCount() == 0
		if cs.eta {
			p.etaCats = append(p.etaCats, i)
		}
		if cs.card > top1 {
			top1, top2 = cs.card, top1
		} else if cs.card > top2 {
			top2 = cs.card
		}
	}
	// η rows need block sums plus shared counts; Pairwise's categorical
	// statistics need η's sums and counts, or the largest r×c table.
	p.maxCard = top1
	p.bufLen = max((block+1)*top1, top1*top2+top1+top2)
	p.precompute(workers)
	p.dense, p.free, p.nullNum = make([]int, 0, n), make([]int, 0, n), make([]int, 0, n)
	for i := range p.cols {
		switch cs := &p.cols[i]; {
		case !cs.numeric:
		case cs.valid != nil:
			p.nullNum = append(p.nullNum, i)
		case cs.vec != nil:
			p.dense = append(p.dense, i)
			fallthrough
		default:
			p.free = append(p.free, i)
		}
	}
	if m == AbsPearson {
		p.masked = p.nullNum
	}
	if len(p.etaCats) > 0 {
		p.welford(workers)
	}
	return p
}

// welford builds every numeric column's η total: NULL-free columns four
// at a time with stats.Moments4, NULL-bearing ones one at a time.
func (p *pairPlan) welford(workers int) {
	blocks := (len(p.free) + block - 1) / block
	par.For(workers, blocks+len(p.nullNum), func(_, t int) {
		if t >= blocks {
			cs := &p.cols[p.nullNum[t-blocks]]
			for _, x := range cs.floats {
				if !math.IsNaN(x) {
					cs.total.Add(x)
				}
			}
			return
		}
		lo := t * block
		var xs [block][]float64
		for k := range xs {
			xs[k] = p.cols[pick(p.free, lo+k)].floats
		}
		totals := stats.Moments4(&xs)
		for k := 0; k < block && lo+k < len(p.free); k++ {
			p.cols[p.free[lo+k]].total = totals[k]
		}
	})
}

// precompute fills the numeric columns' statistics, one task per column.
// The NULL count, validity words and mean are read off the frame's column
// seals (frame.ColumnMean's Σx is a row-order prefix accumulator, so it is
// bit-identical to stats.Mean over the non-NULL values) and only the
// second moments scan the cells. The η totals follow in welford, once
// the column roles are known.
func (p *pairPlan) precompute(workers int) {
	f, m := p.f, p.m
	rankScratch := make([]stats.RankScratch, workers)
	idxScratch := make([][]int, workers)
	par.For(workers, len(p.cols), func(w, i int) {
		c := f.Col(i)
		if c.Kind() != frame.Numeric {
			return
		}
		cs := &p.cols[i]
		cs.numeric = true
		cs.floats = c.Floats()
		mean := f.ColumnMean(i) // seals the column, so NullCount is O(1)
		cs.count = len(cs.floats) - c.NullCount()
		if cs.count < len(cs.floats) {
			cs.valid = f.ColumnValidWords(i)
		}
		switch {
		case cs.valid != nil:
			if m == AbsPearson {
				cs.mean = mean
				cs.ss = squaredDeviations(cs.floats, mean)
			}
		case len(cs.floats) < 3:
		case m == AbsPearson:
			cs.vec, cs.mean = cs.floats, mean
			cs.ss = squaredDeviations(cs.vec, mean)
		case m == AbsSpearman:
			nRows := len(cs.floats)
			if cap(idxScratch[w]) < nRows {
				idxScratch[w] = make([]int, nRows)
			}
			cs.vec = stats.RanksIdxWith(&rankScratch[w], make([]float64, nRows), idxScratch[w][:nRows], cs.floats)
			cs.mean = stats.Mean(cs.vec)
			cs.ss = squaredDeviations(cs.vec, cs.mean)
		}
	})
}

// squaredDeviations returns Σ(x−mean)² over the non-NULL values of xs,
// accumulated in row order exactly as stats.Pearson accumulates its Σdx²
// term over a pair's complete cases.
func squaredDeviations(xs []float64, mean float64) float64 {
	var ss float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			d := x - mean
			ss += d * d
		}
	}
	return ss
}

// Task layout: tile panels, then η blocks, then masked Pearson blocks,
// then one generic task per column. The big tasks come first so the
// dynamic schedule balances the tail with small ones.
func (p *pairPlan) panels() int { return (len(p.dense) + tileRows - 1) / tileRows }

func (p *pairPlan) tasks() int {
	return p.panels() + len(p.etaCats) + len(p.masked) + len(p.cols)
}

func (p *pairPlan) run(mat *Matrix, s *pairScratch, t int) {
	if t < p.panels() {
		p.densePanel(mat, t)
		return
	}
	t -= p.panels()
	if t < len(p.etaCats) {
		p.etaRow(mat, s, p.etaCats[t])
		return
	}
	t -= len(p.etaCats)
	if t < len(p.masked) {
		p.maskedRow(mat, p.masked[t])
		return
	}
	p.genericRow(mat, s, t-len(p.masked))
}

// pick returns list[k], or list's last entry when k is past the end: the
// padding slot of a partial tile or block, computed and discarded.
func pick(list []int, k int) int { return list[min(k, len(list)-1)] }

// densePanel computes tile panel t: dense columns [4t, 4t+4) against
// every later dense column, two at a time. Tiles that reach into the
// panel itself compute a few diagonal and lower-triangle cells, which are
// discarded; each upper-triangle cell is written by exactly one panel.
func (p *pairPlan) densePanel(mat *Matrix, t int) {
	d := p.dense
	lo := t * tileRows
	var xs [tileRows][]float64
	var mx [tileRows]float64
	for a := range xs {
		cs := &p.cols[pick(d, lo+a)]
		xs[a], mx[a] = cs.vec, cs.mean
	}
	for q := lo + 1; q < len(d); q += tileCols {
		var ys [tileCols][]float64
		var my [tileCols]float64
		for b := range ys {
			cs := &p.cols[pick(d, q+b)]
			ys[b], my[b] = cs.vec, cs.mean
		}
		sxy := gram4x2(&xs, &mx, &ys, &my)
		for a := 0; a < tileRows; a++ {
			for b := 0; b < tileCols; b++ {
				pa, pb := lo+a, q+b
				if pa >= pb || pb >= len(d) {
					continue
				}
				i, j := d[pa], d[pb]
				mat.setPair(i, j, pearsonScore(sxy[a*tileCols+b], p.cols[i].ss, p.cols[j].ss))
			}
		}
	}
}

// maskedRow computes a NULL-bearing numeric column's Pearson cells with
// every NULL-free numeric partner. The complete cases of each such pair
// are x's non-NULL rows, so x's mean and Σdx² are shared, and each
// partner's Σy, then Σdxdy and Σdy², are accumulated over those rows in
// order.
func (p *pairPlan) maskedRow(mat *Matrix, x int) {
	cx := &p.cols[x]
	free := p.free
	if cx.count < 3 {
		for _, j := range free {
			mat.setPair(x, j, 0)
		}
		return
	}
	cnt := float64(cx.count)
	for lo := 0; lo < len(free); lo += block {
		var ys [block][]float64
		for k := range ys {
			ys[k] = p.cols[pick(free, lo+k)].floats
		}
		sy := maskedSum4(cx.valid, &ys)
		var my [block]float64
		for k := range my {
			my[k] = sy[k] / cnt
		}
		sxy, syy := maskedCross4(cx.valid, cx.floats, cx.mean, &ys, &my)
		for k := 0; k < block && lo+k < len(free); k++ {
			mat.setPair(x, free[lo+k], pearsonScore(sxy[k], cx.ss, syy[k]))
		}
	}
}

// etaRow computes a NULL-free categorical column's η cells with every
// numeric partner. The rows are sorted by level once; each level's sum is
// then a register accumulation over its rows in row order, four NULL-free
// partners per pass, which share the level counts. NULL-bearing partners
// run one at a time with their own counts. Each partner's Welford total is
// hoisted: with no NULL in the categorical column it is exactly the total
// correlationRatio builds.
func (p *pairPlan) etaRow(mat *Matrix, s *pairScratch, c int) {
	card := p.cols[c].card
	order, ends := p.levelOrder(s, p.cols[c].codes, card)
	buf := p.groups(s)
	groupN := buf[:card]
	start := 0
	for g, end := range ends {
		groupN[g] = float64(end - start)
		start = end
	}
	sums := buf[card : (block+1)*card]
	free := p.free
	for lo := 0; lo < len(free); lo += block {
		var ys [block][]float64
		for k := range ys {
			ys[k] = p.cols[pick(free, lo+k)].floats
		}
		levelSums4(order, ends, &ys, sums)
		for k := 0; k < block && lo+k < len(free); k++ {
			j := free[lo+k]
			mat.setPair(c, j, etaOf(sums[k*card:(k+1)*card], groupN, &p.cols[j].total))
		}
	}
	nullSum, nullN := sums[:card], sums[card:2*card]
	for _, j := range p.nullNum {
		xs := p.cols[j].floats
		start := 0
		for g, end := range ends {
			var sum, n float64
			for _, r := range order[start:end] {
				if v := xs[r]; !math.IsNaN(v) {
					sum += v
					n++
				}
			}
			nullSum[g], nullN[g] = sum, n
			start = end
		}
		mat.setPair(c, j, etaOf(nullSum, nullN, &p.cols[j].total))
	}
}

// genericRow computes column i's cells (i, j), j > i, that no tile or
// block covers, with Pairwise's own statistics over per-worker scratch.
func (p *pairPlan) genericRow(mat *Matrix, s *pairScratch, i int) {
	a := &p.cols[i]
	for j := i + 1; j < len(p.cols); j++ {
		b := &p.cols[j]
		var v float64
		switch {
		case a.numeric && b.numeric:
			if a.vec != nil && b.vec != nil ||
				p.m == AbsPearson && (a.valid == nil) != (b.valid == nil) {
				continue // a tile or a masked Pearson block
			}
			if a.valid == nil && b.valid == nil {
				v = numericDependency(a.floats, b.floats, p.m)
			} else {
				xs, ys := s.gatherAligned(a, b)
				v = numericDependency(xs, ys, p.m)
			}
		case !a.numeric && !b.numeric:
			v = cramersV(p.f.Col(i), p.f.Col(j), p.groups(s))
		case a.eta || b.eta:
			continue // an η block
		case a.numeric:
			v = correlationRatio(p.f.Col(j), p.f.Col(i), p.groups(s))
		default:
			v = correlationRatio(p.f.Col(i), p.f.Col(j), p.groups(s))
		}
		mat.setPair(i, j, v)
	}
}

// gatherAligned collects the pairwise complete cases of two numeric
// columns into the worker's scratch, walking the AND of the validity words
// one word at a time (bits.TrailingZeros64 over the joint mask) instead of
// testing every row. Rows come out in ascending order — the same order the
// per-row scan produced — so every downstream statistic is bit-identical.
func (s *pairScratch) gatherAligned(a, b *colStats) (xs, ys []float64) {
	n := min(len(a.floats), len(b.floats))
	if cap(s.xs) < n {
		s.xs = make([]float64, 0, n)
		s.ys = make([]float64, 0, n)
	}
	xs, ys = s.xs[:0], s.ys[:0]
	nw := (n + 63) / 64
	for k := 0; k < nw; k++ {
		w := jointWord(a.valid, k) & jointWord(b.valid, k)
		if rem := n - k<<6; rem < 64 {
			w &= (1 << uint(rem)) - 1
		}
		base := k << 6
		for ; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			xs = append(xs, a.floats[i])
			ys = append(ys, b.floats[i])
		}
	}
	s.xs, s.ys = xs, ys
	return xs, ys
}

// jointWord reads word k of a validity bitmap, treating a nil bitmap (a
// NULL-free column) as all-valid.
func jointWord(valid []uint64, k int) uint64 {
	if valid == nil {
		return ^uint64(0)
	}
	return valid[k]
}

// pearsonScore finishes stats.Pearson from its three sums and maps the
// result to a dependency score the way numericDependency does: |r|, NaN →
// 0, clamped into [0, 1].
func pearsonScore(sxy, sxx, syy float64) float64 {
	if sxx == 0 || syy == 0 {
		return 0
	}
	v := math.Abs(sxy / math.Sqrt(sxx*syy))
	if math.IsNaN(v) {
		return 0
	}
	return min(v, 1)
}

// gram4x2 returns Σ(x_a−mx_a)(y_b−my_b) over all rows for the eight (a, b)
// pairs of a 4×2 tile, row-major in a. Each sum runs in row order, so each
// is bit-identical to stats.Pearson's Σdxdy for that pair.
func gram4x2(xs *[tileRows][]float64, mx *[tileRows]float64, ys *[tileCols][]float64, my *[tileCols]float64) [tileRows * tileCols]float64 {
	x0 := xs[0]
	n := len(x0)
	x1, x2, x3 := xs[1][:n], xs[2][:n], xs[3][:n]
	y0, y1 := ys[0][:n], ys[1][:n]
	var s00, s01, s10, s11, s20, s21, s30, s31 float64
	for r, v := range x0 {
		// The means are read through the pointers on every row: each
		// read folds into its subtraction as a memory operand, leaving
		// the registers to the eight accumulators.
		e0 := y0[r] - my[0]
		e1 := y1[r] - my[1]
		d := v - mx[0]
		s00 += d * e0
		s01 += d * e1
		d = x1[r] - mx[1]
		s10 += d * e0
		s11 += d * e1
		d = x2[r] - mx[2]
		s20 += d * e0
		s21 += d * e1
		d = x3[r] - mx[3]
		s30 += d * e0
		s31 += d * e1
	}
	return [tileRows * tileCols]float64{s00, s01, s10, s11, s20, s21, s30, s31}
}

// maskedSum4 returns Σy over the rows set in valid for four columns, each
// in row order.
func maskedSum4(valid []uint64, ys *[block][]float64) [block]float64 {
	y0 := ys[0]
	n := len(y0)
	y1, y2, y3 := ys[1][:n], ys[2][:n], ys[3][:n]
	var s0, s1, s2, s3 float64
	for k, w := range valid {
		base := k << 6
		for ; w != 0; w &= w - 1 {
			r := base + bits.TrailingZeros64(w)
			s0 += y0[r]
			s1 += y1[r]
			s2 += y2[r]
			s3 += y3[r]
		}
	}
	return [block]float64{s0, s1, s2, s3}
}

// maskedCross4 returns Σ(x−mx)(y−my) and Σ(y−my)² over the rows set in
// valid for four y columns, each in row order.
func maskedCross4(valid []uint64, x []float64, mx float64, ys *[block][]float64, my *[block]float64) (sxy, syy [block]float64) {
	n := len(x)
	y0, y1, y2, y3 := ys[0][:n], ys[1][:n], ys[2][:n], ys[3][:n]
	m0, m1, m2, m3 := my[0], my[1], my[2], my[3]
	var c0, c1, c2, c3, q0, q1, q2, q3 float64
	for k, w := range valid {
		base := k << 6
		for ; w != 0; w &= w - 1 {
			r := base + bits.TrailingZeros64(w)
			dx := x[r] - mx
			e := y0[r] - m0
			c0 += dx * e
			q0 += e * e
			e = y1[r] - m1
			c1 += dx * e
			q1 += e * e
			e = y2[r] - m2
			c2 += dx * e
			q2 += e * e
			e = y3[r] - m3
			c3 += dx * e
			q3 += e * e
		}
	}
	return [block]float64{c0, c1, c2, c3}, [block]float64{q0, q1, q2, q3}
}

// levelSums4 sums four columns over each level's rows (see levelOrder),
// in row order: column k's level sums go to sums[k*card : (k+1)*card].
func levelSums4(order []int32, ends []int, ys *[block][]float64, sums []float64) {
	card := len(ends)
	y0 := ys[0]
	n := len(y0)
	y1, y2, y3 := ys[1][:n], ys[2][:n], ys[3][:n]
	sums = sums[:block*card]
	start := 0
	for g, end := range ends {
		var s0, s1, s2, s3 float64
		for _, r := range order[start:end] {
			s0 += y0[r]
			s1 += y1[r]
			s2 += y2[r]
			s3 += y3[r]
		}
		sums[g], sums[card+g], sums[2*card+g], sums[3*card+g] = s0, s1, s2, s3
		start = end
	}
}
