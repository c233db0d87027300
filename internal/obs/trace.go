// Package obs is the observability substrate of the reproduction:
// trace propagation, a typed metrics registry, a decision-trace ring
// buffer, and a runtime sampler. It depends only on the standard
// library and internal/metrics, so every other layer — core, browser,
// engine, httpd — can import it without cycles.
//
// The package exists to make the complete-mediation invariant
// inspectable at runtime instead of only assertable in tests: a trace
// minted per engine task is threaded through page loads and carried
// over the wire, so one trace ID links session → HTTP request → batch
// → each audited decision, and the last N decisions stay queryable on
// the gateway's admin host.
package obs

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
)

// traceHi/traceLo seed trace-ID uniqueness: a random per-process
// prefix (so IDs from different processes never collide)
// and an atomic counter (so IDs within a process are unique and
// cheap — no per-trace entropy read).
var (
	tracePrefix = rand.Uint64()
	traceSeq    atomic.Uint64
)

// Trace is one causal context: a process-unique ID and a span
// counter. It is minted once per engine task (a page load, a script
// run, a workload step), travels with the task's requests as the
// X-Escudo-Trace header value, and stamps every decision the task's
// mediation produces with (ID, next span).
//
// A Trace is cheap by construction — two words of state, IDs derived
// from an atomic counter, spans from an atomic add — so minting one
// per task adds no measurable load to the hot path.
type Trace struct {
	id    string
	spans atomic.Uint64
}

// NewTrace mints a fresh trace with a process-unique ID.
func NewTrace() *Trace {
	n := traceSeq.Add(1)
	return &Trace{id: fmt.Sprintf("%016x-%08x", tracePrefix, n)}
}

// Adopt wraps an existing trace ID (one that arrived over the wire)
// in a Trace whose spans continue locally. Empty IDs yield nil — the
// no-trace state.
func Adopt(id string) *Trace {
	if id == "" {
		return nil
	}
	return &Trace{id: id}
}

// ID returns the trace identifier.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// NextSpan reserves and returns the next span number within the
// trace. Spans number the decisions (and other events) of one trace
// in issue order, starting at 1.
func (t *Trace) NextSpan() uint64 {
	if t == nil {
		return 0
	}
	return t.spans.Add(1)
}

// Spans returns how many spans the trace has issued so far.
func (t *Trace) Spans() uint64 {
	if t == nil {
		return 0
	}
	return t.spans.Load()
}
