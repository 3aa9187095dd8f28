package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the q-th quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks of the sorted sample (Hyndman
// & Fan type 7, the default of R and NumPy). xs is not modified; an empty
// sample yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+sys CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase meters the process over one timed phase: wall and CPU time, the
// Go runtime's allocation and GC counters, and HeapInuse sampled every
// heapSampleEvery. pause and resume exclude untimed work (input
// generation, side replays) from every measure but the heap samples.
type phase struct {
	acc     phaseResult
	running bool
	wall0   time.Time
	cpu0    time.Duration
	mem0    runtime.MemStats

	stop chan struct{}
	done chan struct{}

	mu sync.Mutex
	// cycle is the GC cycle count of the last sample; cyclePeak the highest
	// HeapInuse sampled in that cycle, and peaks those of finished cycles.
	cycle     uint32
	cyclePeak uint64
	peaks     []float64
}

// phaseResult is what a phase measured.
type phaseResult struct {
	Wall time.Duration
	CPU  time.Duration
	// PeakHeap is the median over the phase's GC cycles of each cycle's
	// highest sampled HeapInuse: the heap high-water mark a typical cycle
	// reaches. The single highest sample (MaxHeap) depends on which cycle
	// happened to catch the most in-flight work, and varies far more from
	// run to run.
	PeakHeap uint64 // bytes
	MaxHeap  uint64 // bytes
	Cycles   int
	Alloc    uint64 // bytes allocated
	GCCycles uint32
	GCPause  time.Duration
}

const heapSampleEvery = 10 * time.Millisecond

// startPhase begins metering; the caller must call end exactly once. It
// first collects the garbage set-up left, so the heap peak measures the
// phase alone.
func startPhase() *phase {
	runtime.GC()
	p := &phase{stop: make(chan struct{}), done: make(chan struct{})}
	p.resume()
	p.observeHeap(p.mem0.HeapInuse, p.mem0.NumGC)
	go p.sample()
	return p
}

func (p *phase) sample() {
	defer close(p.done)
	t := time.NewTicker(heapSampleEvery)
	defer t.Stop()
	var m runtime.MemStats
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			runtime.ReadMemStats(&m)
			p.observeHeap(m.HeapInuse, m.NumGC)
		}
	}
}

func (p *phase) observeHeap(v uint64, gc uint32) {
	p.mu.Lock()
	if gc != p.cycle && p.cyclePeak > 0 {
		p.peaks = append(p.peaks, float64(p.cyclePeak))
		p.cyclePeak = 0
	}
	p.cycle = gc
	p.cyclePeak = max(p.cyclePeak, v)
	p.mu.Unlock()
}

// resume starts a metered segment.
func (p *phase) resume() {
	runtime.ReadMemStats(&p.mem0)
	p.cpu0 = cpuTime()
	p.wall0 = time.Now()
	p.running = true
}

// pause ends the current segment, adding it to the totals.
func (p *phase) pause() {
	wall := time.Since(p.wall0)
	cpu := cpuTime() - p.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.observeHeap(m.HeapInuse, m.NumGC)
	p.acc.Wall += wall
	p.acc.CPU += cpu
	p.acc.Alloc += m.TotalAlloc - p.mem0.TotalAlloc
	p.acc.GCCycles += m.NumGC - p.mem0.NumGC
	p.acc.GCPause += time.Duration(m.PauseTotalNs - p.mem0.PauseTotalNs)
	p.running = false
}

// end stops metering and returns the phase's measurements.
func (p *phase) end() phaseResult {
	if p.running {
		p.pause()
	}
	close(p.stop)
	<-p.done
	peaks := append(p.peaks, float64(p.cyclePeak))
	p.acc.PeakHeap = uint64(percentile(peaks, 0.5))
	p.acc.MaxHeap = uint64(percentile(peaks, 1))
	p.acc.Cycles = len(peaks)
	return p.acc
}
