package policy

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/origin"
)

func samplePolicy() Policy {
	p := New(origin.MustParse("http://forum.example"), 3)
	p.Cookies["phpbb2mysql_sid"] = Uniform(1)
	p.Cookies["phpbb2mysql_data"] = Assignment{Ring: 1, Read: 1, Write: 1, Use: 1}
	p.APIs["xmlhttprequest"] = 1
	p.Delegate(origin.MustParse("http://widget.example"), 2)
	p.Delegate(origin.MustParse("http://ads.example"), 3)
	return p
}

// TestJSONRoundTripLossless pins the acceptance criterion:
// Parse(Marshal(p)) == p.
func TestJSONRoundTripLossless(t *testing.T) {
	p := samplePolicy()
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip diverges:\n in:  %+v\n out: %+v", p, q)
	}
	if !p.Equal(q) {
		t.Fatal("Equal disagrees with DeepEqual")
	}
	// Serialization is deterministic: marshal twice, same bytes.
	again, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatalf("marshal not deterministic:\n %s\n %s", data, again)
	}
}

// TestValidateRejects covers the rejection matrix: out-of-range rings,
// bad origins, unknown delegation origins, duplicates.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Policy)
		want   string
	}{
		{"bad-version", func(p *Policy) { p.Version = 2 }, "version"},
		{"bad-origin", func(p *Policy) { p.Origin = "not a url" }, "origin"},
		{"maxring-out-of-range", func(p *Policy) { p.MaxRing = core.MaxSupportedRing + 1 }, "max_ring"},
		{"cookie-ring-high", func(p *Policy) { p.Cookies["c"] = Uniform(4) }, "cookie"},
		{"cookie-acl-high", func(p *Policy) { p.Cookies["c"] = Assignment{Ring: 1, Read: 9, Write: 1, Use: 1} }, "cookie"},
		{"cookie-ring-negative", func(p *Policy) { p.Cookies["c"] = Assignment{Ring: -1} }, "cookie"},
		{"empty-cookie-name", func(p *Policy) { p.Cookies[" "] = Uniform(1) }, "cookie"},
		{"api-ring-high", func(p *Policy) { p.APIs["dom"] = 7 }, "api"},
		{"api-uppercase", func(p *Policy) { p.APIs["XMLHttpRequest"] = 1 }, "lowercase"},
		{"delegation-bad-guest", func(p *Policy) {
			p.Delegations = append(p.Delegations, Delegation{Guest: "::nope::", Floor: 2})
		}, "guest"},
		{"delegation-self", func(p *Policy) {
			p.Delegations = append(p.Delegations, Delegation{Guest: "http://forum.example", Floor: 2})
		}, "own origin"},
		{"delegation-floor-high", func(p *Policy) {
			p.Delegations = append(p.Delegations, Delegation{Guest: "http://x.example", Floor: 9})
		}, "floor"},
		{"delegation-duplicate", func(p *Policy) {
			p.Delegations = append(p.Delegations,
				Delegation{Guest: "http://x.example", Floor: 2},
				Delegation{Guest: "http://x.example:80", Floor: 3})
		}, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := samplePolicy()
			tc.mutate(&p)
			err := p.Validate()
			if err == nil {
				t.Fatal("Validate accepted a bad document")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// Parse must reject the same document on the wire.
			if data, merr := p.Marshal(); merr == nil {
				if _, perr := Parse(data); perr == nil {
					t.Fatal("Parse accepted a bad document")
				}
			}
		})
	}
	if err := samplePolicy().Validate(); err != nil {
		t.Fatalf("valid sample rejected: %v", err)
	}
}

// TestPageConfigRoundTrip converts document → header config → document.
func TestPageConfigRoundTrip(t *testing.T) {
	p := samplePolicy()
	p.Delegations = nil // not representable in headers
	cfg := p.PageConfig()
	if got, acl := cfg.CookieRing("phpbb2mysql_sid"); got != 1 || acl != core.UniformACL(1) {
		t.Fatalf("cookie ring = %d acl = %v", got, acl)
	}
	if got := cfg.APIRing("XMLHttpRequest"); got != 1 {
		t.Fatalf("api ring = %d", got)
	}
	back := FromPageConfig(origin.MustParse("http://forum.example"), cfg)
	if !p.Equal(back) {
		t.Fatalf("page-config round trip diverges:\n in:  %+v\n out: %+v", p, back)
	}
}

// TestDelegationPolicy compiles the document into the runtime policy.
func TestDelegationPolicy(t *testing.T) {
	p := samplePolicy()
	dp, err := p.DelegationPolicy()
	if err != nil {
		t.Fatal(err)
	}
	host := origin.MustParse("http://forum.example")
	if floor, ok := dp.DelegationFloor(host, origin.MustParse("http://widget.example")); !ok || floor != 2 {
		t.Fatalf("widget floor = %d, %v", floor, ok)
	}
	if _, ok := dp.DelegationFloor(host, origin.MustParse("http://rogue.example")); ok {
		t.Fatal("undeclared guest has a delegation")
	}
}

// TestDelegateNarrowsNotWidens mirrors mashup.Policy semantics.
func TestDelegateNarrowsNotWidens(t *testing.T) {
	p := New(origin.MustParse("http://portal.example"), 3)
	guest := origin.MustParse("http://widget.example")
	p.Delegate(guest, 2)
	p.Delegate(guest, 1) // widening attempt: ignored
	if p.Delegations[0].Floor != 2 {
		t.Fatalf("floor widened to %d", p.Delegations[0].Floor)
	}
	p.Delegate(guest, 3) // narrowing: applied
	if p.Delegations[0].Floor != 3 {
		t.Fatalf("floor = %d after narrowing", p.Delegations[0].Floor)
	}
	if len(p.Delegations) != 1 {
		t.Fatalf("duplicate rows: %+v", p.Delegations)
	}
}

// TestSummary smoke-checks the human-readable rendering.
func TestSummary(t *testing.T) {
	s := samplePolicy().Summary()
	for _, want := range []string{"forum.example", "phpbb2mysql_sid", "xmlhttprequest", "widget.example", "floor=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// Rings a 16-bit label cannot hold are refused when the document is
// decoded, never wrapped into range (65536 would be the kernel ring).
func TestParseRefusesWrappingRings(t *testing.T) {
	for _, doc := range []string{
		`{"version":1,"origin":"http://bare.example","max_ring":65536}`,
		`{"version":1,"origin":"http://bare.example","max_ring":3,"cookies":{"sid":{"ring":65536,"r":0,"w":0,"x":0}}}`,
		`{"version":1,"origin":"http://bare.example","max_ring":3,"apis":{"dom":-65536}}`,
		`{"version":1,"origin":"http://bare.example","max_ring":3,"delegations":[{"guest":"http://x.example","floor":65538}]}`,
	} {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("Parse(%s) accepted a ring out of range", doc)
		}
	}
}

// TestParseInitializesOmittedSections pins that a minimal wire
// document parses back with usable (non-nil) maps, matching New.
func TestParseInitializesOmittedSections(t *testing.T) {
	p, err := Parse([]byte(`{"version":1,"origin":"http://bare.example","max_ring":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Cookies == nil || p.APIs == nil {
		t.Fatalf("omitted sections must come back as empty maps: %+v", p)
	}
	p.Cookies["sid"] = Uniform(1) // must not panic
	p.APIs["dom"] = 1
	minimal := New(origin.MustParse("http://bare.example"), 3)
	data, err := minimal.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(minimal, back) {
		t.Fatalf("empty-section round trip diverges:\n in:  %#v\n out: %#v", minimal, back)
	}
}
