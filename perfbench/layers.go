package main

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/shard"
)

// The wrappers in this file time each layer from outside the program,
// around its public calls. With a nil tracer they are never installed: an
// untraced run uses the stack exactly as built.

// Headers the benchmark's HTTP client sets on traced requests; the server
// wrapper strips them before the program sees the request.
const (
	headerRequest = "X-Perfbench-Request"
	headerParent  = "X-Perfbench-Parent"
)

// tracedBackend decorates a shard.Backend. Backend calls carry no request
// context, so each span carries the (frame, selection) fingerprint key
// that join uses to find its request.
type tracedBackend struct {
	shard.Backend
	tr *tracer

	mu     sync.Mutex
	probes int
	hits   int
	// waits is, per successful Characterize, the backend span minus the
	// report's own stage timings: admission queueing plus (for a remote
	// backend) transport and codec time.
	waits []float64
}

func (b *tracedBackend) CachedReport(fp uint64, sel *frame.Bitmap, opts core.Options) (*core.Report, bool) {
	start := b.tr.now()
	rep, ok := b.Backend.CachedReport(fp, sel, opts)
	end := b.tr.now()
	if b.tr.add(span{name: "shard.probe", start: start, end: end, key: spanKey{fp, sel.Fingerprint()}}) != 0 {
		b.mu.Lock()
		b.probes++
		if ok {
			b.hits++
		}
		b.mu.Unlock()
	}
	return rep, ok
}

func (b *tracedBackend) Characterize(f *frame.Frame, sel *frame.Bitmap, opts core.Options) (*core.Report, error) {
	start := b.tr.now()
	rep, err := b.Backend.Characterize(f, sel, opts)
	end := b.tr.now()
	if b.tr.add(span{name: "shard.characterize", start: start, end: end, key: spanKey{f.Fingerprint(), sel.Fingerprint()}}) != 0 && err == nil {
		b.mu.Lock()
		b.waits = append(b.waits, ms(end-start-rep.Timings.Total()))
		b.mu.Unlock()
	}
	return rep, err
}

func (b *tracedBackend) RegisterTable(f *frame.Frame) error {
	start := b.tr.now()
	err := b.Backend.RegisterTable(f)
	b.tr.add(span{name: "shard.register", start: start, end: b.tr.now()})
	return err
}

// counts returns the probe counters and admission waits recorded so far.
func (b *tracedBackend) counts() (probes, hits int, waits []float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.probes, b.hits, append([]float64(nil), b.waits...)
}

// traceBackends wraps every backend; the returned slice is what the router
// is built over.
func traceBackends(tr *tracer, backends []shard.Backend) ([]shard.Backend, []*tracedBackend) {
	out := make([]shard.Backend, len(backends))
	traced := make([]*tracedBackend, len(backends))
	for i, b := range backends {
		traced[i] = &tracedBackend{Backend: b, tr: tr}
		out[i] = traced[i]
	}
	return out, traced
}

// backendTotals sums the decorators' counters.
func backendTotals(bs []*tracedBackend) (probes, hits int, waits []float64) {
	for _, b := range bs {
		p, h, w := b.counts()
		probes += p
		hits += h
		waits = append(waits, w...)
	}
	return probes, hits, waits
}

// serverSpans wraps the front's http.Handler: one "server.handle" span per
// request, a child of the client span named in the request's headers.
func serverSpans(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(headerRequest), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(headerParent), 10, 64)
		r.Header.Del(headerRequest)
		r.Header.Del(headerParent)
		start := tr.now()
		next.ServeHTTP(w, r)
		tr.add(span{name: "server.handle", req: req, parent: parent, start: start, end: tr.now()})
	})
}

// workerSpans wraps a remote worker's http.Handler: one span per RPC,
// named after its path ("remote.worker.characterize", ...). Worker spans
// carry no request; join places them inside the front-side span of the
// RPC that carried them.
type workerSpans struct {
	tr    *tracer
	next  http.Handler
	calls atomic.Int64 // RPCs served while the tracer was armed
}

func newWorkerSpans(tr *tracer, next http.Handler) *workerSpans {
	return &workerSpans{tr: tr, next: next}
}

func (ws *workerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := "remote.worker." + r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
	start := ws.tr.now()
	ws.next.ServeHTTP(w, r)
	if ws.tr.add(span{name: name, start: start, end: ws.tr.now()}) != 0 {
		ws.calls.Add(1)
	}
}
