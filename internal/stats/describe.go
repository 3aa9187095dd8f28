// Package stats provides the numerical statistics substrate for the Ziggy
// reproduction: descriptive statistics, correlation measures, ranks,
// histograms, special functions, and the distribution CDFs required by the
// hypothesis tests of package hypo.
//
// Functions operate on plain []float64 slices and in general assume no
// NaNs; callers (package frame) strip NULLs before the values reach this
// layer. The exception is the two-group Ranking constructors, which detect
// NaN-bearing input and mark it untestable (HasNaN) so the robust pipeline
// degrades gracefully instead of ranking garbage. Sample (not population)
// estimators are used throughout, matching the effect-size literature the
// paper builds on (Hedges & Olkin 1985).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator), or NaN
// for fewer than two values. It uses the two-pass algorithm for numerical
// stability.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss, comp float64
	for _, x := range xs {
		d := x - m
		ss += d * d
		comp += d
	}
	// The compensation term corrects for rounding in the mean.
	n := float64(len(xs))
	return (ss - comp*comp/n) / (n - 1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// MinMax returns the extrema, or (NaN, NaN) for empty input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Quantile returns the q-th sample quantile (q in [0,1]) of sorted data
// using linear interpolation (type-7, the R default). It panics if sorted
// is empty or q is outside [0,1].
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: Quantile q outside [0,1]")
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// QuantileUnsorted sorts a copy of xs and returns the q-th quantile.
func QuantileUnsorted(xs []float64, q float64) float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return Quantile(s, q)
}

// Median returns the sample median.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return QuantileUnsorted(xs, 0.5)
}

// Summary bundles the descriptive statistics Ziggy's preparation stage
// computes for one side (inside or outside the selection) of one column.
type Summary struct {
	N        int
	Mean     float64
	Variance float64
	Std      float64
	Min      float64
	Max      float64
}

// Describe computes a Summary in a single pass over xs.
func Describe(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		s.Mean, s.Variance, s.Std = math.NaN(), math.NaN(), math.NaN()
		s.Min, s.Max = math.NaN(), math.NaN()
		return s
	}
	s.Mean = Mean(xs)
	s.Variance = Variance(xs)
	s.Std = math.Sqrt(s.Variance)
	s.Min, s.Max = MinMax(xs)
	return s
}

// Moments accumulates streaming mean/variance via Welford's algorithm. It
// lets the preparation stage compute statistics in one pass without
// materializing both column splits.
type Moments struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (m *Moments) Add(x float64) {
	m.n++
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
}

// Moments4 returns the accumulators of four equal-length series, each
// built by one Add per value in order, so each is bit-identical to the
// sequential loop. The four recurrences are independent, so running them
// interleaved overlaps their division latency.
func Moments4(xs *[4][]float64) [4]Moments {
	x0 := xs[0]
	n := len(x0)
	x1, x2, x3 := xs[1][:n], xs[2][:n], xs[3][:n]
	var a0, a1, a2, a3, q0, q1, q2, q3 float64
	for i, v := range x0 {
		k := float64(i + 1)
		d := v - a0
		a0 += d / k
		q0 += d * (v - a0)
		v = x1[i]
		d = v - a1
		a1 += d / k
		q1 += d * (v - a1)
		v = x2[i]
		d = v - a2
		a2 += d / k
		q2 += d * (v - a2)
		v = x3[i]
		d = v - a3
		a3 += d / k
		q3 += d * (v - a3)
	}
	return [4]Moments{{n, a0, q0}, {n, a1, q1}, {n, a2, q2}, {n, a3, q3}}
}

// N returns the count of values seen.
func (m *Moments) N() int { return m.n }

// Mean returns the running mean (NaN when empty).
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.mean
}

// Variance returns the running unbiased sample variance (NaN below 2).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return math.NaN()
	}
	return m.m2 / float64(m.n-1)
}

// Std returns the running sample standard deviation.
func (m *Moments) Std() float64 { return math.Sqrt(m.Variance()) }

// Merge combines another accumulator into m (parallel Welford merge).
func (m *Moments) Merge(o Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	nA, nB := float64(m.n), float64(o.n)
	delta := o.mean - m.mean
	total := nA + nB
	m.mean += delta * nB / total
	m.m2 += o.m2 + delta*delta*nA*nB/total
	m.n += o.n
}

// Ranks returns the fractional ranks of xs (average ranks for ties),
// 1-based, as used by Spearman correlation and the Mann-Whitney test.
func Ranks(xs []float64) []float64 {
	return RanksInto(make([]float64, len(xs)), xs)
}

// RanksInto is Ranks writing into caller-provided storage; dst must have
// length len(xs) and is returned for convenience.
func RanksInto(dst, xs []float64) []float64 {
	return RanksIdx(dst, make([]int, len(xs)), xs)
}

// RanksIdx is RanksInto with caller-provided index scratch, for callers
// that rank in a loop; idx must have length len(xs) and is overwritten.
// The ranking pass itself lives in ranksCore (ranking.go), shared with the
// two-group Ranking constructor so every rank computation in the system is
// metered by RankOps.
func RanksIdx(dst []float64, idx []int, xs []float64) []float64 {
	ranksCore(dst, idx, xs)
	return dst
}

// RanksIdxWith is RanksIdx with an explicit kernel scratch (see
// RankingIntoWith), for callers ranking many columns in a loop — the
// Spearman dependency matrix's rank-once phase reuses one scratch per
// worker instead of allocating radix buffers per column.
func RanksIdxWith(s *RankScratch, dst []float64, idx []int, xs []float64) []float64 {
	ranksCoreWith(s, dst, idx, xs)
	return dst
}

// ZScores returns (x - mean)/std for each value; all zeros if std is zero
// or not finite.
func ZScores(xs []float64) []float64 {
	out := make([]float64, len(xs))
	m := Mean(xs)
	s := StdDev(xs)
	if s == 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return out
	}
	for i, x := range xs {
		out[i] = (x - m) / s
	}
	return out
}
