package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/randx"
)

// rankReference computes the type-7 quantile without sorting: the k-th
// smallest value is found by counting, for every candidate, how many
// values lie below it.
func rankReference(xs []float64, q float64) float64 {
	kth := func(k int) float64 {
		for _, c := range xs {
			var below, equal int
			for _, x := range xs {
				if x < c {
					below++
				} else if x == c {
					equal++
				}
			}
			if below <= k && k < below+equal {
				return c
			}
		}
		panic("unreachable")
	}
	h := q * float64(len(xs)-1)
	lo := int(math.Floor(h))
	if lo >= len(xs)-1 {
		return kth(len(xs) - 1)
	}
	return kth(lo) + (h-float64(lo))*(kth(lo+1)-kth(lo))
}

func samples(seed uint64, n int) []float64 {
	r := randx.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.LogNormal(1, 0.8) // latency-like: skewed, positive
		if i%17 == 0 && i > 0 {
			xs[i] = xs[i-1] // ties
		}
	}
	return xs
}

func TestPercentileMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 101, 250} {
		xs := samples(uint64(n), n)
		orig := append([]float64(nil), xs...)
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			got, want := percentile(xs, q), rankReference(xs, q)
			if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Errorf("n=%d q=%v: percentile %v, reference %v", n, q, got, want)
			}
		}
		for i := range xs {
			if xs[i] != orig[i] {
				t.Fatalf("percentile modified its input")
			}
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// The log2 histogram internal/load records serving latencies in must stay
// within its stated quantisation error of the exact percentile, far below
// a 10% bound.
func TestHistogramWithinBoundOfPercentile(t *testing.T) {
	xs := samples(7, 400)
	var h load.Histogram
	for _, x := range xs {
		h.Observe(ms2d(x))
	}
	for _, q := range []float64{0.5, 0.9} {
		exact := percentile(xs, q)
		approx := float64(h.Quantile(q)) / float64(time.Millisecond)
		if rel := math.Abs(approx-exact) / exact; rel > 0.10 {
			t.Errorf("q=%v: histogram %v vs exact %v (%.1f%% off, bound 10%%)", q, approx, exact, 100*rel)
		}
	}
}

func TestPhasePauseExcludesWork(t *testing.T) {
	p := startPhase()
	time.Sleep(20 * time.Millisecond)
	p.pause()
	time.Sleep(50 * time.Millisecond)
	p.resume()
	time.Sleep(20 * time.Millisecond)
	r := p.end()
	if r.Wall < 40*time.Millisecond || r.Wall >= 90*time.Millisecond {
		t.Errorf("phase wall %v: want the two 20 ms segments only", r.Wall)
	}
	if r.PeakHeap == 0 {
		t.Errorf("no heap peak recorded")
	}
}
