package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/web"
)

// spanKind names the seams the traced run records. Every span is taken
// in this package, around a call into a module's public API; nothing
// is added to the program under test.
type spanKind uint8

const (
	spanOp        spanKind = iota // one user action, benchmark side
	spanQueue                     // engine: Submit → task start
	spanRoundTrip                 // web: the session's Transport.RoundTrip
	spanHandler                   // phpbb: the gateway's Config.Inner round trip
	spanBatch                     // core: AuthorizeBatch on the policy stack
	spanAuthorize                 // core: Authorize on the policy stack
	spanScript                    // script: Page.RunScriptAs made by the workload
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "engine.queue", "web.roundtrip", "phpbb.handler", "core.batch", "core.authorize", "script.run",
}

// span is one recorded interval: nanoseconds since the tracer's base,
// the index of the span that caused it (-1 for an op) and its op.
type span struct {
	start, end int64
	parent     int32
	op         int32
	kind       spanKind
}

// tracer keeps spans in memory; they are written out when the run
// ends. The session is closed-loop and single, so at most one chain of
// nested spans is open at a time: a stack gives each new span its
// parent, including spans the gateway's goroutines open while the
// session waits in RoundTrip. The mutex orders those goroutines.
// A nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	op    int32
	spans []span
	open  []int32
	// spansOn records spans; captureOn keeps the GET pages of the ops
	// since the last replay in captured. A pass does one or the other,
	// so replay work never lands beside timed spans.
	spansOn, captureOn bool
	captured           []page
	dropped            int
}

// page is a response body the browser parsed as a document.
type page struct {
	url  string
	resp *web.Response
}

// offHeap returns a zeroed slice of n pointer-free values mapped
// outside the Go heap. The benchmark keeps its per-op records there:
// the session's live heap is about a megabyte, under the collector's
// 4 MB minimum goal, where a few retained megabytes of bookkeeping
// would visibly slow the collection cadence of the program measured.
// The mapping lives until the process exits.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	mem, err := syscall.Mmap(-1, 0, max(n, 1)*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping benchmark records: %w", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(mem))), n), nil
}

// spanTracer records spans; captureTracer only captures pages.
func spanTracer(ops int) (*tracer, error) {
	spans, err := offHeap[span](16 * ops)
	if err != nil {
		return nil, err
	}
	return &tracer{base: time.Now(), spansOn: true, spans: spans[:0], open: make([]int32, 0, 16)}, nil
}

func captureTracer() *tracer { return &tracer{captureOn: true} }

func (t *tracer) begin(k spanKind) int32 {
	if t == nil || !t.spansOn {
		return -1
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := int32(len(t.spans))
	if len(t.spans) == cap(t.spans) {
		// Out of mapped storage: count the loss (it fails the run)
		// rather than move the spans onto the heap.
		t.dropped++
		t.mu.Unlock()
		return -1
	}
	t.spans = append(t.spans, span{start: now, end: -1, parent: parent, op: t.op, kind: k})
	t.open = append(t.open, idx)
	t.mu.Unlock()
	return idx
}

func (t *tracer) end(idx int32) {
	if t == nil || idx < 0 {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[idx].end = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == idx {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// reset drops everything recorded so far (set-up and warm-up).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans, t.open, t.captured, t.op = t.spans[:0], t.open[:0], nil, 0
	t.mu.Unlock()
}

// beginOp opens op i's root span.
func (t *tracer) beginOp(i int) int32 {
	if t == nil || !t.spansOn {
		return -1
	}
	t.mu.Lock()
	t.op = int32(i)
	t.mu.Unlock()
	return t.begin(spanOp)
}

func (t *tracer) capture(p page) {
	t.mu.Lock()
	t.captured = append(t.captured, p)
	t.mu.Unlock()
}

func (t *tracer) takeCaptured() []page {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.captured
	t.captured = nil
	return out
}

// spanTotals are per-kind sums over the recorded spans: inclusive
// time, self time (minus the time child spans cover) and count.
type spanTotals struct {
	incl, self [numSpanKinds]int64
	count      [numSpanKinds]int64
}

func (t *tracer) totals() spanTotals {
	var st spanTotals
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		st.incl[s.kind] += d
		st.self[s.kind] += d - child[i]
		st.count[s.kind]++
	}
	return st
}

// write dumps the spans as gzipped text, one span per line:
// op kind start_ns end_ns parent.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "# op kind start_ns end_ns parent")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d %s %d %d %d\n", s.op, spanNames[s.kind], s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// timedTransport is a web.Transport seam: the session's transport
// (kind spanRoundTrip, capturing the pages the browser will parse) or
// the gateway's inner transport (kind spanHandler).
type timedTransport struct {
	inner   web.Transport
	tr      *tracer
	kind    spanKind
	capture bool
}

func (t *timedTransport) RoundTrip(req *web.Request) (*web.Response, error) {
	sp := t.tr.begin(t.kind)
	resp, err := t.inner.RoundTrip(req)
	t.tr.end(sp)
	if t.capture && t.tr.captureOn && err == nil && req.Method == "GET" && resp.Status == 200 && resp.Body != "" {
		t.tr.capture(page{url: req.URL, resp: resp})
	}
	return resp, err
}

// timedMonitor times calls into the session's policy stack, the stack
// a browser.Options.MonitorFactory returns: the browser composes its
// generation, provenance, audit and stage-timing layers around it.
type timedMonitor struct {
	inner core.Monitor
	tr    *tracer
}

var _ core.BatchAuthorizer = (*timedMonitor)(nil)

func (m *timedMonitor) Authorize(p core.Context, op core.Op, o core.Context) core.Decision {
	sp := m.tr.begin(spanAuthorize)
	d := m.inner.Authorize(p, op, o)
	m.tr.end(sp)
	return d
}

func (m *timedMonitor) AuthorizeBatch(p core.Context, op core.Op, objects []core.Context) []core.Decision {
	sp := m.tr.begin(spanBatch)
	ds := core.AuthorizeBatch(m.inner, p, op, objects)
	m.tr.end(sp)
	return ds
}
