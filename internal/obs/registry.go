package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// The registry replaces the hand-rolled counter structs scattered
// across httpd and engine with typed handles registered by
// name and label set. Registration is setup-time work (it takes a
// lock and allocates); recording through a handle is the hot path and
// must stay allocation-free — Counter.Add and Gauge.Set are single
// atomics, Hist.Observe folds into a full-capacity bucket slice under
// a mutex. The AllocsPerRun gates in registry_test pin all three at
// zero.

// Label is one name=value dimension of a metric.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter handle.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a set-to-current-value gauge handle (goroutine counts,
// heap bytes, queue depths).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Hist is a histogram handle over the mergeable metrics.Histogram.
// Observe is mutex-guarded (the underlying counts are not atomic) but
// allocation-free once warm — metrics.Histogram grows to full
// capacity on first need.
type Hist struct {
	mu sync.Mutex
	h  metrics.Histogram
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	h.mu.Lock()
	h.h.Observe(d)
	h.mu.Unlock()
}

// Snapshot copies the underlying histogram for merging or quantiles.
func (h *Hist) Snapshot() metrics.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	return metrics.Histogram{Counts: append([]uint64(nil), h.h.Counts...)}
}

// metricKind tags a registry entry.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHist
)

// entry is one registered metric: its identity and its handle.
type entry struct {
	name   string
	labels string // rendered {k="v",...} suffix, "" when unlabeled
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Hist
}

// Registry holds typed metric handles registered by name + label set.
// Re-registering the same (name, labels) returns the existing handle,
// so packages can register idempotently. The zero value is NOT ready;
// use NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	order   []string // registration order of keys, for stable exposition
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

// renderLabels builds the canonical {k="v",...} suffix; labels are
// sorted by key so the same set always yields the same identity.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(a, b int) bool { return ls[a].Key < ls[b].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the entry for (name, labels), creating it with mk on
// first registration. Kind mismatches panic: registering one name as
// both a counter and a gauge is a programming error, caught loudly at
// setup time rather than silently skewing exposition.
func (r *Registry) lookup(name string, labels []Label, kind metricKind, mk func() *entry) *entry {
	key := name + renderLabels(labels)
	r.mu.RLock()
	e, ok := r.entries[key]
	r.mu.RUnlock()
	if ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different type", key))
		}
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different type", key))
		}
		return e
	}
	e = mk()
	e.name = name
	e.labels = renderLabels(labels)
	e.kind = kind
	r.entries[key] = e
	r.order = append(r.order, key)
	return e
}

// Counter registers (or finds) a counter by name and labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	e := r.lookup(name, labels, kindCounter, func() *entry { return &entry{counter: &Counter{}} })
	return e.counter
}

// Gauge registers (or finds) a gauge by name and labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	e := r.lookup(name, labels, kindGauge, func() *entry { return &entry{gauge: &Gauge{}} })
	return e.gauge
}

// Histogram registers (or finds) a histogram by name and labels.
func (r *Registry) Histogram(name string, labels ...Label) *Hist {
	e := r.lookup(name, labels, kindHist, func() *entry { return &entry{hist: &Hist{}} })
	return e.hist
}

// Expose renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms as summaries (p50/p99 quantiles plus _count) — the
// quantile arithmetic is the same metrics.Histogram math the BENCH
// reports use, so /varz and BENCH_engine.json can never disagree.
// Entries render in registration order; repeated label sets of one
// name are grouped under a single TYPE header.
func (r *Registry) Expose() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var b strings.Builder
	typed := map[string]bool{}
	for _, key := range r.order {
		e := r.entries[key]
		switch e.kind {
		case kindCounter:
			if !typed[e.name] {
				fmt.Fprintf(&b, "# TYPE %s counter\n", e.name)
				typed[e.name] = true
			}
			fmt.Fprintf(&b, "%s%s %d\n", e.name, e.labels, e.counter.Value())
		case kindGauge:
			if !typed[e.name] {
				fmt.Fprintf(&b, "# TYPE %s gauge\n", e.name)
				typed[e.name] = true
			}
			fmt.Fprintf(&b, "%s%s %d\n", e.name, e.labels, e.gauge.Value())
		case kindHist:
			if !typed[e.name] {
				fmt.Fprintf(&b, "# TYPE %s summary\n", e.name)
				typed[e.name] = true
			}
			h := e.hist.Snapshot()
			p50 := h.Quantile(50).Seconds()
			p99 := h.Quantile(99).Seconds()
			fmt.Fprintf(&b, "%s%s %g\n", e.name, quantileLabels(e.labels, "0.5"), p50)
			fmt.Fprintf(&b, "%s%s %g\n", e.name, quantileLabels(e.labels, "0.99"), p99)
			fmt.Fprintf(&b, "%s_count%s %d\n", e.name, e.labels, h.Total())
		}
	}
	return b.String()
}

// quantileLabels splices quantile="q" into a rendered label suffix.
func quantileLabels(labels, q string) string {
	if labels == "" {
		return `{quantile="` + q + `"}`
	}
	return labels[:len(labels)-1] + `,quantile="` + q + `"}`
}

// Snapshot returns the scalar metrics (counters and gauges) as a
// name+labels → value map — the JSON-friendly view tests and the
// BENCH obs section read.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.entries))
	for key, e := range r.entries {
		switch e.kind {
		case kindCounter:
			out[key] = int64(e.counter.Value())
		case kindGauge:
			out[key] = e.gauge.Value()
		}
	}
	return out
}
