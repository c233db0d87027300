package core

import (
	"repro/internal/origin"
)

// The reference monitor used to be assembled by a private switch
// statement in the browser; anything beyond the built-in ERM/SOP ×
// cached/uncached matrix (notably the §7 delegation-aware monitor)
// could not be mounted in a real session. The pipeline below makes the
// monitor an open composition instead: a base monitor (ERM, SOPMonitor,
// or anything else implementing Monitor) is wrapped by Layers —
// caching, delegation rewriting, and the observation tap (tap.go) —
// each of which implements both Monitor and BatchAuthorizer. Batching
// passes through every layer, so the PR 2 complete-mediation invariant
// holds end to end: one audited decision per node, one decision
// computation per (origin, ring, ACL) equivalence class, whatever the
// stack.

// Layer is one composable stage of a monitor pipeline: it wraps an
// inner monitor and returns the wrapped one. Every layer returned by
// the With* constructors implements BatchAuthorizer as well as
// Monitor, so batched region authorizations keep their dedup and
// per-node audit semantics through arbitrary stacks.
type Layer func(Monitor) Monitor

// Compose wraps base with the given layers, applied left to right:
// the first layer sits closest to the base monitor, the last is
// outermost. The canonical enforcement stack is
//
//	Compose(&ERM{}, WithCache(c), WithDelegations(p), WithAudit(log))
//
// — cache probes innermost (memoizing pure rule verdicts), delegation
// rewriting outside the cache (so cached verdicts stay plain ERM
// verdicts shareable across monitors), and the audit tap outermost
// (so every decision the stack emits is recorded exactly once).
// Nil layers are skipped.
func Compose(base Monitor, layers ...Layer) Monitor {
	m := base
	for _, l := range layers {
		if l != nil {
			m = l(m)
		}
	}
	return m
}

// DelegationSource resolves §7 mashup delegations: it reports the
// floor ring granted to principals of guest acting on host's objects,
// if the host has declared such a delegation. mashup.Policy implements
// it; the interface lives here so the delegation layer can rewrite
// queries without core importing the mashup package.
type DelegationSource interface {
	// DelegationFloor returns the most privileged ring a guest
	// principal may act as inside host's pages, and whether a
	// delegation for the pair exists at all.
	DelegationFloor(host, guest origin.Origin) (Ring, bool)
}

// WithDelegations returns the delegation layer: a cross-origin access
// whose (object-origin ← principal-origin) pair carries a declared
// delegation is re-homed — the principal is evaluated as a member of
// the object's origin with its ring floored at the delegated ring —
// and then decided by the inner stack. Accesses with no delegation
// pass through unchanged (the inner monitor's Origin rule denies them
// exactly as before), so this layer over a plain ERM is the §7
// delegation-aware monitor. Mount it outside WithCache: the rewrite
// happens before the cache probe, so cached verdicts remain pure
// same-origin rule verdicts, shareable with undelegated monitors. A
// nil source yields a pass-through layer.
func WithDelegations(src DelegationSource) Layer {
	return func(inner Monitor) Monitor {
		if src == nil {
			return inner
		}
		return &delegationLayer{inner: inner, src: src}
	}
}

// delegationLayer rewrites delegated cross-origin queries.
type delegationLayer struct {
	inner Monitor
	src   DelegationSource
}

var (
	_ Monitor         = (*delegationLayer)(nil)
	_ BatchAuthorizer = (*delegationLayer)(nil)
)

// rehome returns the principal to evaluate for object o: p itself for
// same-origin or undelegated accesses, or p re-homed into o's origin
// with the floored ring when a delegation applies.
func (m *delegationLayer) rehome(p Context, o Context) (Context, bool) {
	if p.Origin.SameOrigin(o.Origin) {
		return p, false
	}
	floor, ok := m.src.DelegationFloor(o.Origin, p.Origin)
	if !ok {
		return p, false
	}
	fp := p
	fp.Origin = o.Origin
	fp.Ring = p.Ring.Outermost(floor)
	return fp, true
}

// Authorize implements Monitor. Decisions report the ORIGINAL
// principal, so audit trails stay honest about who asked.
func (m *delegationLayer) Authorize(p Context, op Op, o Context) Decision {
	fp, rehomed := m.rehome(p, o)
	d := m.inner.Authorize(fp, op, o)
	if rehomed {
		d.Principal = p
	}
	return d
}

// AuthorizeBatch implements BatchAuthorizer. The rewrite reads only
// the principal's and the object's origins, and the object's origin is
// part of its equivalence class, so the layer batches like any other:
// one rewrite and one inner decision per class, one decision per
// object reporting the original principal. An inner stack that does
// not batch still decides every object, as it would without the layer.
func (m *delegationLayer) AuthorizeBatch(p Context, op Op, objects []Context) []Decision {
	if _, ok := m.inner.(BatchAuthorizer); !ok {
		return authorizeEach(m, p, op, objects)
	}
	return batchDecide(m, p, op, objects)
}
