package depend

import (
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/stats"
)

// Measure selects the numeric-numeric dependency statistic.
type Measure int

const (
	// AbsPearson uses |r|; the paper's default.
	AbsPearson Measure = iota
	// AbsSpearman uses the absolute rank correlation.
	AbsSpearman
	// NormalizedMI uses mutual information normalized to [0, 1].
	NormalizedMI
)

// String names the measure.
func (m Measure) String() string {
	switch m {
	case AbsPearson:
		return "abs-pearson"
	case AbsSpearman:
		return "abs-spearman"
	case NormalizedMI:
		return "normalized-mi"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
}

// Pairwise returns the dependency in [0, 1] between columns a and b of f,
// which must have the same length. NULL rows (in either column) are dropped
// pairwise. Degenerate cases (constant columns, too few rows) return 0: an
// uninformative column cannot anchor a tight view.
//
// Pairwise is symmetric in value but not always in its last bit: Cramér's
// V sums χ² over the r×c contingency table in a's-level-major order, so
// swapping two categorical arguments can move the last bit. NewMatrix
// fixes the order: cell (i, j) is Pairwise(column min(i,j), column
// max(i,j)).
func Pairwise(a, b *frame.Column, m Measure) float64 {
	switch {
	case a.Kind() == frame.Numeric && b.Kind() == frame.Numeric:
		xs, ys := alignedNumeric(a, b)
		return numericDependency(xs, ys, m)
	case a.Kind() == frame.Categorical && b.Kind() == frame.Categorical:
		return cramersV(a, b, nil)
	case a.Kind() == frame.Numeric:
		return correlationRatio(b, a, nil)
	default:
		return correlationRatio(a, b, nil)
	}
}

func numericDependency(xs, ys []float64, m Measure) float64 {
	if len(xs) < 3 {
		return 0
	}
	var v float64
	switch m {
	case AbsSpearman:
		v = math.Abs(stats.Spearman(xs, ys))
	case NormalizedMI:
		v = stats.NormalizedMI(xs, ys, 0)
	default:
		v = math.Abs(stats.Pearson(xs, ys))
	}
	if math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		v = 1
	}
	return v
}

// alignedNumeric extracts pairwise complete cases from two numeric columns.
func alignedNumeric(a, b *frame.Column) (xs, ys []float64) {
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	for i := 0; i < n; i++ {
		if a.IsNull(i) || b.IsNull(i) {
			continue
		}
		xs = append(xs, a.Float(i))
		ys = append(ys, b.Float(i))
	}
	return xs, ys
}

// zeroed returns buf[:n] cleared, or a fresh slice when buf is too small
// (a nil buf always allocates).
func zeroed(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// cramersV computes Cramér's V between two categorical columns with
// bias-free plug-in estimation: V = sqrt(χ²/n / min(r-1, c-1)). buf, when
// large enough, holds the r×c table and its margins.
func cramersV(a, b *frame.Column, buf []float64) float64 {
	r := a.Cardinality()
	c := b.Cardinality()
	if r < 2 || c < 2 {
		return 0
	}
	buf = zeroed(buf, r*c+r+c)
	table, rowTot, colTot := buf[:r*c], buf[r*c:r*c+r], buf[r*c+r:]
	n := 0.0
	ac, bc := a.Codes(), b.Codes()
	if len(bc) < len(ac) {
		ac = ac[:len(bc)]
	}
	for i, ai := range ac {
		bi := bc[i]
		if ai < 0 || bi < 0 {
			continue
		}
		table[int(ai)*c+int(bi)]++
		rowTot[ai]++
		colTot[bi]++
		n++
	}
	if n < 3 {
		return 0
	}
	chi2 := 0.0
	for i := 0; i < r; i++ {
		if rowTot[i] == 0 {
			continue
		}
		for j := 0; j < c; j++ {
			if colTot[j] == 0 {
				continue
			}
			expected := rowTot[i] * colTot[j] / n
			d := table[i*c+j] - expected
			chi2 += d * d / expected
		}
	}
	k := float64(min(r, c) - 1)
	if k <= 0 {
		return 0
	}
	v := math.Sqrt(chi2 / (n * k))
	if v > 1 {
		v = 1
	}
	return v
}

// correlationRatio computes η: the square root of the between-group share of
// the numeric column's variance when grouped by the categorical column.
// buf, when large enough, holds the per-group sums and counts.
func correlationRatio(cat, num *frame.Column, buf []float64) float64 {
	card := cat.Cardinality()
	if card < 2 {
		return 0
	}
	buf = zeroed(buf, 2*card)
	groupSum, groupN := buf[:card], buf[card:]
	var total stats.Moments
	codes, xs := cat.Codes(), num.Floats()
	if len(xs) < len(codes) {
		codes = codes[:len(xs)]
	}
	for i, g := range codes {
		v := xs[i]
		if g < 0 || math.IsNaN(v) {
			continue
		}
		groupSum[g] += v
		groupN[g]++
		total.Add(v)
	}
	return etaOf(groupSum, groupN, &total)
}

// etaOf finishes the correlation ratio from the per-group sums and counts
// of the numeric values and their Welford moments.
func etaOf(groupSum, groupN []float64, total *stats.Moments) float64 {
	if total.N() < 3 {
		return 0
	}
	grand := total.Mean()
	ssTotal := total.Variance() * float64(total.N()-1)
	if ssTotal <= 0 {
		return 0
	}
	ssBetween := 0.0
	for g, n := range groupN {
		if n == 0 {
			continue
		}
		d := groupSum[g]/n - grand
		ssBetween += n * d * d
	}
	eta := math.Sqrt(ssBetween / ssTotal)
	if eta > 1 {
		eta = 1
	}
	return eta
}

// Matrix is a symmetric column-dependency matrix over a frame's columns.
type Matrix struct {
	names []string
	vals  []float64 // row-major, n×n
	n     int
}

// setPair writes v to cells (i, j) and (j, i).
func (m *Matrix) setPair(i, j int, v float64) {
	m.vals[i*m.n+j] = v
	m.vals[j*m.n+i] = v
}

// MatrixFromValues wraps a precomputed symmetric matrix; used by tests and
// the planted-data experiments.
func MatrixFromValues(names []string, vals []float64) (*Matrix, error) {
	n := len(names)
	if len(vals) != n*n {
		return nil, fmt.Errorf("depend: %d values for %d names", len(vals), n)
	}
	v := make([]float64, len(vals))
	copy(v, vals)
	return &Matrix{names: names, vals: v, n: n}, nil
}

// Len returns the number of columns covered.
func (m *Matrix) Len() int { return m.n }

// Names returns the column names in matrix order.
func (m *Matrix) Names() []string { return m.names }

// At returns the dependency between columns i and j.
func (m *Matrix) At(i, j int) float64 { return m.vals[i*m.n+j] }

// MinPairwise returns the minimum dependency over all unordered pairs in the
// index set idx — the tightness of the candidate view (Equation 2). A set
// with fewer than two columns has tightness 1 by convention (a singleton
// view is trivially coherent).
func (m *Matrix) MinPairwise(idx []int) float64 {
	if len(idx) < 2 {
		return 1
	}
	min := math.Inf(1)
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			v := m.At(idx[a], idx[b])
			if v < min {
				min = v
			}
		}
	}
	return min
}

// Distances converts dependencies to dissimilarities (1 - S) for the
// clustering stage.
func (m *Matrix) Distances() []float64 {
	d := make([]float64, len(m.vals))
	for i, v := range m.vals {
		d[i] = 1 - v
	}
	for i := 0; i < m.n; i++ {
		d[i*m.n+i] = 0
	}
	return d
}
