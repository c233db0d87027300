package httpd

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/web"
)

// forumPolicy builds a representative policy document for an origin.
func forumPolicy(o origin.Origin) policy.Policy {
	p := policy.New(o, 3)
	p.Cookies["sid"] = policy.Uniform(1)
	p.APIs["xmlhttprequest"] = 1
	p.Delegate(origin.MustParse("http://widget.example"), 2)
	return p
}

// TestPolicyWireDelivery pins the unified document's trip over the
// wire: the well-known per-origin path and the admin /policyz endpoint
// both serve a document that parses back equal to the mounted one.
func TestPolicyWireDelivery(t *testing.T) {
	n := web.NewNetwork()
	forum := origin.MustParse("http://forum.example")
	bare := origin.MustParse("http://bare.example")
	n.Register(forum, echoHandler("forum"))
	n.Register(bare, echoHandler("bare"))

	doc := forumPolicy(forum)
	g := startGateway(t, n, Config{
		Origins: map[string]policy.Policy{forum.String(): doc},
	})

	// Per-origin wire delivery at the well-known path.
	resp := rawGet(t, g, "forum.example", PolicyPath, nil)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d %s", PolicyPath, resp.StatusCode, body)
	}
	got, err := policy.Parse([]byte(body))
	if err != nil {
		t.Fatalf("served policy does not parse: %v\n%s", err, body)
	}
	if !got.Equal(doc) {
		t.Fatalf("served policy diverges:\n want %+v\n got  %+v", doc, got)
	}

	// An origin without a mounted policy falls through to its handler.
	resp = rawGet(t, g, "bare.example", PolicyPath, nil)
	if body := readBody(t, resp); resp.StatusCode != 200 || !strings.Contains(body, "host=bare") {
		t.Fatalf("policy-less origin hijacked: %d %q", resp.StatusCode, body)
	}

	// Admin /policyz lists every mounted document under the fleet
	// generation (1: the mount's seed publication was the only swap)...
	resp = rawGet(t, g, g.Addr(), "/policyz", nil)
	var listing policyzJSON
	if err := json.Unmarshal([]byte(readBody(t, resp)), &listing); err != nil {
		t.Fatalf("policyz: %v", err)
	}
	if listing.Generation != 1 {
		t.Fatalf("policyz generation = %d, want 1", listing.Generation)
	}
	if len(listing.Policies) != 1 || !listing.Policies[forum.String()].Equal(doc) {
		t.Fatalf("policyz = %+v", listing.Policies)
	}
	if listing.Revs[forum.String()] != 1 {
		t.Fatalf("policyz revs = %+v, want forum at 1", listing.Revs)
	}
	// ...and answers per-origin queries.
	resp = rawGet(t, g, g.Addr(), "/policyz?origin=http://forum.example", nil)
	single, err := policy.Parse([]byte(readBody(t, resp)))
	if err != nil || !single.Equal(doc) {
		t.Fatalf("policyz?origin: %v %+v", err, single)
	}
	resp = rawGet(t, g, g.Addr(), "/policyz?origin=http://bare.example", nil)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("policyz for policy-less origin: %d, want 404", resp.StatusCode)
	}
}

// TestMountRejectsBadPolicy pins mount-time validation: invalid
// documents and documents naming a different origin never mount, and
// nothing mounts once the gateway has started.
func TestMountRejectsBadPolicy(t *testing.T) {
	n := web.NewNetwork()
	forum := origin.MustParse("http://forum.example")
	n.Register(forum, echoHandler("forum"))
	bad := forumPolicy(forum)
	bad.MaxRing = -1
	for name, doc := range map[string]policy.Policy{
		"an invalid policy":                  bad,
		"a policy naming a different origin": forumPolicy(origin.MustParse("http://other.example")),
	} {
		g, err := New(Config{Inner: n, Origins: map[string]policy.Policy{forum.String(): doc}})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Mount(forum); err == nil {
			t.Fatalf("mounted %s", name)
		}
	}
	g := startGateway(t, n, Config{})
	late := origin.MustParse("http://late.example")
	n.Register(late, echoHandler("late"))
	if err := g.Mount(late); err == nil {
		t.Fatal("mounted an origin after Start")
	}
}
