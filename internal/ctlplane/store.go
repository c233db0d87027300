// Package ctlplane is the policy control plane: the piece that lets a
// running deployment *change* its per-origin escudo.Policy documents
// without a restart and without ever letting a mid-flight page load
// observe two policy generations.
//
// The design splits into two halves. Store is the authoritative side:
// an immutable snapshot of every mounted document behind an
// atomic.Pointer, advanced copy-on-write under a writer mutex, with a
// single fleet-wide generation counter that bumps on every accepted
// swap. Readers — the gateway's request path, /policyz, the document
// endpoint — load the pointer and never block. Watcher is the consumer
// side: it long-polls a gateway's admin /policyz?wait=gen endpoint
// (falling back to plain periodic polling against older gateways),
// republishes the observed generation through an atomic for sessions
// to capture at page load, and fires callbacks on each flip so the
// engine can invalidate its DecisionCache and rebuild MonitorFactory
// inputs.
//
// Enforcement never moves: the gateway still only *serves* policy; the
// browser-side reference monitors enforce it. The control plane only
// versions and distributes the documents.
package ctlplane

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/policy"
)

// Entry is one origin's mounted document plus its per-origin revision
// (how many times this origin's document has been swapped; the fleet
// Generation covers all origins).
type Entry struct {
	Policy policy.Policy
	Rev    uint64
}

// Snapshot is one immutable generation of the fleet's policy state.
// Everything in it is read-only after publication; a new swap builds a
// fresh Snapshot and retires this one.
type Snapshot struct {
	// Gen is the fleet generation this snapshot was published at.
	Gen uint64
	// entries maps origin (canonical string form) to its document.
	entries map[string]Entry
	// changed is closed when this snapshot is retired by the next swap,
	// which is how long-poll waiters learn the generation moved without
	// any subscriber registry.
	changed chan struct{}
}

// Get returns the origin's entry.
func (s *Snapshot) Get(origin string) (Entry, bool) {
	e, ok := s.entries[origin]
	return e, ok
}

// Len is the number of mounted documents.
func (s *Snapshot) Len() int { return len(s.entries) }

// Origins lists the mounted origins sorted, for stable rendering.
func (s *Snapshot) Origins() []string {
	out := make([]string, 0, len(s.entries))
	for o := range s.entries {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Each visits every entry (iteration order unspecified).
func (s *Snapshot) Each(f func(origin string, e Entry)) {
	for o, e := range s.entries {
		f(o, e)
	}
}

// Store holds the fleet's per-origin policy documents behind an
// atomic.Pointer. Reads are lock-free pointer loads; writes validate
// first, then copy-on-write the whole table and swap, so a reader
// always sees a complete, internally consistent generation — never a
// half-applied flip. The zero Store is not ready; use NewStore.
type Store struct {
	mu   sync.Mutex // serializes writers; readers never take it
	snap atomic.Pointer[Snapshot]
	// gauge, when set, mirrors the fleet generation into /varz.
	gauge atomic.Pointer[obs.Gauge]
}

// NewStore returns an empty store at generation 0.
func NewStore() *Store {
	s := &Store{}
	s.snap.Store(&Snapshot{entries: map[string]Entry{}, changed: make(chan struct{})})
	return s
}

// SetGauge mirrors every accepted swap's fleet generation into g
// (typically the gateway's escudo_policy_generation /varz gauge).
func (s *Store) SetGauge(g *obs.Gauge) {
	s.gauge.Store(g)
	if g != nil {
		g.Set(int64(s.Generation()))
	}
}

// Snapshot returns the current immutable generation.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Generation returns the fleet generation counter: it bumps on every
// accepted Set, across all origins.
func (s *Store) Generation() uint64 { return s.snap.Load().Gen }

// Get returns origin's current document and per-origin revision.
func (s *Store) Get(origin string) (policy.Policy, uint64, bool) {
	e, ok := s.snap.Load().Get(origin)
	return e.Policy, e.Rev, ok
}

// Set validates doc and publishes it as origin's current document,
// bumping the fleet generation and the origin's revision. Validation
// runs strictly before the swap: an invalid document is rejected with
// the mounted table untouched at its old generation — the atomic-swap
// half of the hot-reload contract. The swap copies the table, publishes
// the copy and retires the old snapshot, waking every Wait.
func (s *Store) Set(doc policy.Policy) (gen, rev uint64, err error) {
	if err := doc.Validate(); err != nil {
		return s.Generation(), 0, fmt.Errorf("ctlplane: rejecting document for %q: %w", doc.Origin, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.snap.Load()
	entries := make(map[string]Entry, len(old.entries)+1)
	for k, v := range old.entries {
		entries[k] = v
	}
	rev = entries[doc.Origin].Rev + 1
	entries[doc.Origin] = Entry{Policy: doc, Rev: rev}
	next := &Snapshot{Gen: old.Gen + 1, entries: entries, changed: make(chan struct{})}
	s.snap.Store(next)
	close(old.changed)
	if g := s.gauge.Load(); g != nil {
		g.Set(int64(next.Gen))
	}
	return next.Gen, rev, nil
}

// Wait blocks until the fleet generation exceeds after (returning the
// new generation) or ctx is done (returning the current one). It is
// the long-poll primitive behind /policyz?wait=gen: waiters park on
// the current snapshot's retirement channel, so a flip wakes them all
// with one channel close and no subscriber bookkeeping.
func (s *Store) Wait(ctx context.Context, after uint64) uint64 {
	for {
		snap := s.snap.Load()
		if snap.Gen > after {
			return snap.Gen
		}
		select {
		case <-snap.changed:
		case <-ctx.Done():
			return s.snap.Load().Gen
		}
	}
}
