// Package mashup implements the extension the paper sketches in §7:
// "ESCUDO's fine-grained protection model could be extended to address
// security requirements for mashup applications by appropriately
// describing the relationship between the rings of applications from
// different origins."
//
// A mashup host declares delegations: for a named guest origin, guest
// principals may act on the host's objects, but never more privileged
// than a declared floor ring. A Policy plugs into the monitor pipeline
// as core.Compose(&core.ERM{}, core.WithDelegations(policy)): the
// delegation layer relaxes only the Origin rule — and only for
// declared pairs — while the Ring and ACL rules run against the
// floored ring, so a guest can be granted, say, ring-2 authority
// inside the host page without any path to the host's ring-0/1
// resources. Without a delegation the stack is exactly the ESCUDO
// Reference Monitor.
package mashup

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/origin"
)

// Delegation grants principals of Guest a bounded presence inside
// Host's pages.
type Delegation struct {
	// Host is the embedding application whose objects are exposed.
	Host origin.Origin
	// Guest is the embedded application whose principals gain
	// access.
	Guest origin.Origin
	// Floor is the most privileged ring a guest principal can act as
	// within the host's page: a guest principal in ring g is treated
	// as ring max(g, Floor). Floor 0 would mean full trust; mashup
	// hosts normally pick an outer ring.
	Floor core.Ring
}

// String renders the delegation for traces.
func (d Delegation) String() string {
	return fmt.Sprintf("%s ← %s (floor %d)", d.Host, d.Guest, d.Floor)
}

// Policy is a set of delegations. The zero value delegates nothing.
// It is safe for concurrent use.
type Policy struct {
	mu          sync.Mutex
	delegations map[[2]origin.Origin]Delegation
}

// NewPolicy returns an empty policy.
func NewPolicy() *Policy { return &Policy{} }

// Delegate installs (or tightens) a delegation. Re-declaring an
// existing pair keeps the least privileged (largest) floor: a
// delegation can be narrowed but never silently widened.
func (p *Policy) Delegate(d Delegation) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.delegations == nil {
		p.delegations = map[[2]origin.Origin]Delegation{}
	}
	key := [2]origin.Origin{d.Host, d.Guest}
	if old, ok := p.delegations[key]; ok && old.Floor > d.Floor {
		return
	}
	p.delegations[key] = d
}

// Lookup returns the delegation for a host/guest pair.
func (p *Policy) Lookup(host, guest origin.Origin) (Delegation, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.delegations[[2]origin.Origin{host, guest}]
	return d, ok
}

// DelegationFloor implements core.DelegationSource, so a Policy plugs
// straight into the monitor pipeline via core.WithDelegations.
func (p *Policy) DelegationFloor(host, guest origin.Origin) (core.Ring, bool) {
	d, ok := p.Lookup(host, guest)
	return d.Floor, ok
}

var _ core.DelegationSource = (*Policy)(nil)

// All returns a copy of every delegation.
func (p *Policy) All() []Delegation {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Delegation, 0, len(p.delegations))
	for _, d := range p.delegations {
		out = append(out, d)
	}
	return out
}
