package mashup

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/origin"
)

var (
	portal = origin.MustParse("http://portal.example")
	widget = origin.MustParse("http://widget.example")
	other  = origin.MustParse("http://other.example")
)

// delegated is the §7 monitor: the ERM under the policy's delegations.
func delegated(p *Policy) core.Monitor {
	return core.Compose(&core.ERM{}, core.WithDelegations(p))
}

func TestNoDelegationIsPlainERM(t *testing.T) {
	m := delegated(NewPolicy())
	erm := &core.ERM{}
	cases := []struct {
		p core.Context
		o core.Context
	}{
		{core.Principal(portal, 1, "p"), core.Object(portal, 2, core.UniformACL(2), "o")},
		{core.Principal(portal, 3, "p"), core.Object(portal, 1, core.UniformACL(1), "o")},
		{core.Principal(widget, 0, "p"), core.Object(portal, 3, core.PermissiveACL(3), "o")},
	}
	for _, c := range cases {
		for _, op := range []core.Op{core.OpRead, core.OpWrite, core.OpUse} {
			got := m.Authorize(c.p, op, c.o)
			want := erm.Authorize(c.p, op, c.o)
			if got.Allowed != want.Allowed || got.Rule != want.Rule {
				t.Errorf("no delegation: %v vs ERM %v", got, want)
			}
		}
	}
	// No policy at all: the bare ERM.
	m = &core.ERM{}
	d := m.Authorize(core.Principal(widget, 0, "p"), core.OpRead, core.Object(portal, 3, core.PermissiveACL(3), "o"))
	if d.Allowed {
		t.Error("no policy must not delegate")
	}
}

func TestDelegationGrantsFlooredAccess(t *testing.T) {
	pol := NewPolicy()
	pol.Delegate(Delegation{Host: portal, Guest: widget, Floor: 2})
	m := delegated(pol)

	slot := core.Object(portal, 2, core.UniformACL(2), "widget slot")
	appContent := core.Object(portal, 1, core.UniformACL(1), "app content")
	userContent := core.Object(portal, 3, core.PermissiveACL(3), "user content")

	// A ring-0 widget principal acts as ring 2 in the portal: it may
	// write its slot and outer-ring content, never ring-1 content.
	guest := core.Principal(widget, 0, "widget script")
	if d := m.Authorize(guest, core.OpWrite, slot); !d.Allowed {
		t.Errorf("delegated write to slot denied: %v", d)
	}
	if d := m.Authorize(guest, core.OpWrite, userContent); !d.Allowed {
		t.Errorf("delegated write to outer ring denied: %v", d)
	}
	if d := m.Authorize(guest, core.OpWrite, appContent); d.Allowed {
		t.Errorf("delegation must not reach ring 1: %v", d)
	}
	// A ring-3 widget principal stays ring 3 (floor only lowers
	// privilege, never raises it).
	lowGuest := core.Principal(widget, 3, "low widget script")
	if d := m.Authorize(lowGuest, core.OpWrite, slot); d.Allowed {
		t.Errorf("ring-3 guest must not write the ring-2 slot: %v", d)
	}
}

func TestDelegationIsDirectional(t *testing.T) {
	pol := NewPolicy()
	pol.Delegate(Delegation{Host: portal, Guest: widget, Floor: 2})
	m := delegated(pol)
	// The reverse direction (portal principal on widget objects) has
	// no delegation.
	d := m.Authorize(core.Principal(portal, 0, "p"), core.OpRead,
		core.Object(widget, 3, core.PermissiveACL(3), "o"))
	if d.Allowed || d.Rule != core.RuleOrigin {
		t.Errorf("reverse direction = %v, want origin denial", d)
	}
	// An undeclared third origin gets nothing.
	d = m.Authorize(core.Principal(other, 0, "p"), core.OpRead,
		core.Object(portal, 3, core.PermissiveACL(3), "o"))
	if d.Allowed {
		t.Errorf("undeclared origin = %v", d)
	}
}

func TestRedeclarationNeverWidens(t *testing.T) {
	pol := NewPolicy()
	pol.Delegate(Delegation{Host: portal, Guest: widget, Floor: 3})
	pol.Delegate(Delegation{Host: portal, Guest: widget, Floor: 1}) // attempt to widen
	d, ok := pol.Lookup(portal, widget)
	if !ok || d.Floor != 3 {
		t.Errorf("floor = %v, want 3 (narrowing only)", d.Floor)
	}
	// Narrowing is accepted.
	pol.Delegate(Delegation{Host: portal, Guest: widget, Floor: 3})
	pol2 := NewPolicy()
	pol2.Delegate(Delegation{Host: portal, Guest: widget, Floor: 1})
	pol2.Delegate(Delegation{Host: portal, Guest: widget, Floor: 2})
	if d, _ := pol2.Lookup(portal, widget); d.Floor != 2 {
		t.Errorf("floor = %v, want tightened 2", d.Floor)
	}
}

func TestPolicyAll(t *testing.T) {
	pol := NewPolicy()
	pol.Delegate(Delegation{Host: portal, Guest: widget, Floor: 2})
	pol.Delegate(Delegation{Host: portal, Guest: other, Floor: 3})
	if got := len(pol.All()); got != 2 {
		t.Errorf("All = %d", got)
	}
}

// Property: a delegated monitor never allows an access the plain ERM
// would allow for a same-origin principal at the floor ring — i.e.
// delegation ≈ "guest at ring max(g, floor)", never more.
func TestDelegationUpperBound(t *testing.T) {
	erm := &core.ERM{}
	f := func(guestRing, floor, oRing, r, w, x uint8, opSel uint8) bool {
		pol := NewPolicy()
		fl := core.Ring(floor % 4)
		pol.Delegate(Delegation{Host: portal, Guest: widget, Floor: fl})
		m := delegated(pol)
		op := []core.Op{core.OpRead, core.OpWrite, core.OpUse}[opSel%3]
		g := core.Ring(guestRing % 4)
		obj := core.Object(portal, core.Ring(oRing%4),
			core.ACL{Read: core.Ring(r % 4), Write: core.Ring(w % 4), Use: core.Ring(x % 4)}, "o")
		got := m.Authorize(core.Principal(widget, g, "g"), op, obj)
		equiv := erm.Authorize(core.Principal(portal, g.Outermost(fl), "eq"), op, obj)
		return got.Allowed == equiv.Allowed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestTraceHook(t *testing.T) {
	log := &core.AuditLog{}
	pol := NewPolicy()
	pol.Delegate(Delegation{Host: portal, Guest: widget, Floor: 2})
	m := core.Compose(delegated(pol), core.WithAudit(log))
	m.Authorize(core.Principal(widget, 0, "w"), core.OpRead, core.Object(portal, 3, core.PermissiveACL(3), "o"))
	m.Authorize(core.Principal(portal, 0, "p"), core.OpRead, core.Object(portal, 0, core.UniformACL(0), "o"))
	m.Authorize(core.Principal(other, 0, "x"), core.OpRead, core.Object(portal, 3, core.PermissiveACL(3), "o"))
	if log.Len() != 3 {
		t.Errorf("trace len = %d, want 3", log.Len())
	}
	// The decision reports the original guest principal.
	if all := log.All(); all[0].Principal.Origin != widget {
		t.Errorf("decision principal = %v, want original guest", all[0].Principal)
	}
}
