package sifgen

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/html"
	"repro/internal/nonce"
	"repro/internal/origin"
	"repro/internal/policy"
)

func compiler() *Compiler { return New(nonce.NewSeqSource(1)) }

// phpbbAnnotations is the phpBB page expressed as SIF-style
// annotations; compiling it must reproduce the Table 3 configuration.
func phpbbAnnotations() []Fragment {
	return []Fragment{
		{Kind: KindMarkup, ID: "head", Level: Trusted, Content: "<script>app()</script>"},
		{Kind: KindMarkup, ID: "appbody", Level: Application, Content: "<h1>Forum</h1>"},
		{Kind: KindMarkup, ID: "post-1", Level: Untrusted, Content: "user text", PeerIsolated: true},
		{Kind: KindMarkup, ID: "post-2", Level: Untrusted, Content: "more user text", PeerIsolated: true},
		{Kind: KindCookie, ID: "phpbb2mysql_sid", Level: Application},
		{Kind: KindCookie, ID: "phpbb2mysql_data", Level: Application},
		{Kind: KindAPI, ID: "XMLHttpRequest", Level: Application},
	}
}

func TestCompileReproducesTable3(t *testing.T) {
	out, err := compiler().Compile(phpbbAnnotations())
	if err != nil {
		t.Fatal(err)
	}
	// Cookies: ring 1, ACL ≤ 1 (Table 3).
	for _, name := range []string{"phpbb2mysql_sid", "phpbb2mysql_data"} {
		cc, ok := out.Config.Cookies[name]
		if !ok || cc.Ring != 1 || cc.ACL != core.UniformACL(1) {
			t.Errorf("cookie %s = %+v", name, cc)
		}
	}
	// XHR: ring 1.
	if ac := out.Config.APIs["xmlhttprequest"]; ac.Ring != 1 {
		t.Errorf("xhr = %+v", ac)
	}
	// Markup: parse and check labels.
	doc := html.Parse(out.Body, html.Options{Escudo: true, MaxRing: 3, BaseRing: 3})
	find := func(id string) *html.Node {
		var n *html.Node
		html.Walk(doc, func(m *html.Node) bool {
			if v, ok := m.Attr("id"); ok && v == id {
				n = m
				return false
			}
			return true
		})
		return n
	}
	if head := find("head"); head == nil || head.Ring != 0 || head.ACL != core.UniformACL(0) {
		t.Errorf("head = %+v", head)
	}
	if body := find("appbody"); body == nil || body.Ring != 1 || body.ACL != core.UniformACL(1) {
		t.Errorf("appbody = %+v", body)
	}
	// Peer-isolated untrusted content: ring 3, ACL ≤ 2 (Table 3's
	// "providing isolation between the messages").
	for _, id := range []string{"post-1", "post-2"} {
		post := find(id)
		if post == nil || post.Ring != 3 || post.ACL != core.UniformACL(2) {
			t.Errorf("%s = %+v, want ring 3 acl ≤2", id, post)
		}
	}
}

func TestCompiledScopesAreNonceSealed(t *testing.T) {
	out, err := compiler().Compile(phpbbAnnotations())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Body, "nonce=") {
		t.Error("compiled markup lacks nonces")
	}
	// The generated page must survive an injected node-splitting
	// attempt inside a fragment.
	frags := phpbbAnnotations()
	frags[2].Content = `</div><div ring=0 id=forged>evil</div>`
	out, err = compiler().Compile(frags)
	if err != nil {
		t.Fatal(err)
	}
	doc := html.Parse(out.Body, html.Options{Escudo: true, MaxRing: 3, BaseRing: 3})
	var forged *html.Node
	html.Walk(doc, func(n *html.Node) bool {
		if v, ok := n.Attr("id"); ok && v == "forged" {
			forged = n
			return false
		}
		return true
	})
	if forged == nil || forged.Ring != 3 {
		t.Errorf("forged = %+v, want clamped ring 3", forged)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name  string
		frags []Fragment
	}{
		{"missing id", []Fragment{{Kind: KindMarkup, Level: Trusted}}},
		{"duplicate", []Fragment{
			{Kind: KindCookie, ID: "sid", Level: Application},
			{Kind: KindCookie, ID: "sid", Level: Application},
		}},
		{"bad level", []Fragment{{Kind: KindMarkup, ID: "x", Level: Level(12)}}},
		{"level that would wrap to ring 0", []Fragment{{Kind: KindMarkup, ID: "x", Level: Level(65536)}}},
		{"bad kind", []Fragment{{Kind: FragmentKind(9), ID: "x", Level: Trusted}}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := compiler().Compile(tt.frags); err == nil {
				t.Error("want error")
			}
		})
	}
	// Same id under different kinds is fine (a cookie and a div may
	// share a name).
	_, err := compiler().Compile([]Fragment{
		{Kind: KindCookie, ID: "x", Level: Application},
		{Kind: KindMarkup, ID: "x", Level: Application},
	})
	if err != nil {
		t.Errorf("cross-kind name reuse: %v", err)
	}
}

func TestACLForDerivation(t *testing.T) {
	c := compiler()
	if got := c.ACLFor(Application, false); got != core.UniformACL(1) {
		t.Errorf("application = %v", got)
	}
	if got := c.ACLFor(Untrusted, true); got != core.UniformACL(2) {
		t.Errorf("untrusted isolated = %v", got)
	}
	if got := c.ACLFor(Trusted, true); got != core.UniformACL(0) {
		t.Errorf("trusted isolated must not underflow: %v", got)
	}
	// A level beyond the lattice clamps to the least privileged ring;
	// it must not wrap to the kernel ring on the way.
	if got := c.RingFor(Level(65536)); got != core.DefaultMaxRing {
		t.Errorf("RingFor(65536) = %d, want %d", got, core.DefaultMaxRing)
	}
}

func TestLevelString(t *testing.T) {
	want := map[Level]string{Trusted: "trusted", Application: "application", Partner: "partner", Untrusted: "untrusted"}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("%d = %q", l, l.String())
		}
	}
}

func TestSummary(t *testing.T) {
	s := Summary(phpbbAnnotations(), compiler())
	for _, want := range []string{"head", "phpbb2mysql_sid", "ring=3", "untrusted"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestCompilePolicyDerivesUnifiedDocument checks the §6.2 derivation
// lands in the unified policy document: same assignments as the
// header config, validated, and JSON round-trippable.
func TestCompilePolicyDerivesUnifiedDocument(t *testing.T) {
	o := origin.MustParse("http://forum.example")
	out, pol, err := compiler().CompilePolicy(o, phpbbAnnotations())
	if err != nil {
		t.Fatal(err)
	}
	if pol.Origin != o.String() || pol.MaxRing != core.DefaultMaxRing {
		t.Fatalf("policy header: %+v", pol)
	}
	if a, ok := pol.Cookies["phpbb2mysql_sid"]; !ok || a.Ring != 1 {
		t.Fatalf("sid assignment: %+v ok=%v", a, ok)
	}
	if r, ok := pol.APIs["xmlhttprequest"]; !ok || r != 1 {
		t.Fatalf("xhr assignment: %d ok=%v", r, ok)
	}
	// The derived document and the derived header config agree.
	if got := pol.PageConfig().Cookies["phpbb2mysql_data"]; got != out.Config.Cookies["phpbb2mysql_data"] {
		t.Fatalf("page-config divergence: %+v vs %+v", got, out.Config.Cookies["phpbb2mysql_data"])
	}
	data, err := pol.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := policy.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !pol.Equal(back) {
		t.Fatal("derived policy does not round-trip")
	}
}
