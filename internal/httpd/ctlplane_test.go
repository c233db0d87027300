package httpd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/scenarios"
	"repro/internal/web"
)

// postReload POSTs a policy document at the admin reload endpoint.
func postReload(t *testing.T, g *Gateway, doc policy.Policy) (*http.Response, ctlplane.ReloadResult) {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal policy: %v", err)
	}
	resp, err := http.Post("http://"+g.Addr()+"/policyz/reload", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST reload: %v", err)
	}
	var res ctlplane.ReloadResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("decoding reload result: %v", err)
		}
	}
	return resp, res
}

func fetchPolicyzDoc(t *testing.T, g *Gateway, query string) policyzJSON {
	t.Helper()
	resp := rawGet(t, g, g.Addr(), "/policyz"+query, nil)
	var doc policyzJSON
	if err := json.Unmarshal([]byte(readBody(t, resp)), &doc); err != nil {
		t.Fatalf("policyz JSON: %v", err)
	}
	return doc
}

// TestPolicyReloadSwapsLive pins the hot-reload contract: a valid
// document swaps atomically (generation and revision bump, PolicyPath
// serves the new bytes immediately), an invalid one is rejected with
// the old document untouched at the old generation.
func TestPolicyReloadSwapsLive(t *testing.T) {
	n := web.NewNetwork()
	forum := origin.MustParse("http://forum.example")
	n.Register(forum, echoHandler("forum"))
	doc := forumPolicy(forum)
	g := startGateway(t, n, Config{
		Origins: map[string]policy.Policy{forum.String(): doc},
	})

	if got := fetchPolicyzDoc(t, g, ""); got.Generation != 1 {
		t.Fatalf("generation after mount = %d, want 1", got.Generation)
	}

	// Invalid document: rejected before the swap, nothing moves.
	bad := forumPolicy(forum)
	bad.Version = 99
	resp, _ := postReload(t, g, bad)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid reload: status %d, want 422", resp.StatusCode)
	}
	after := fetchPolicyzDoc(t, g, "")
	if after.Generation != 1 || !after.Policies[forum.String()].Equal(doc) {
		t.Fatalf("rejected reload disturbed the store: gen=%d", after.Generation)
	}

	// Valid document: generation 2, revision 2, and the well-known
	// path serves the new bytes from the instant the swap lands.
	next := forumPolicy(forum)
	next.MaxRing = 2
	resp, res := postReload(t, g, next)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || res.Generation != 2 || res.Rev != 2 {
		t.Fatalf("reload: status %d result %+v, want 200 gen=2 rev=2", resp.StatusCode, res)
	}
	served := rawGet(t, g, "forum.example", PolicyPath, nil)
	got, err := policy.Parse([]byte(readBody(t, served)))
	if err != nil || !got.Equal(next) {
		t.Fatalf("PolicyPath after reload: %v, maxring=%d want 2", err, got.MaxRing)
	}

	// A document for an unmounted origin is refused: the control plane
	// pushes versions to mounted origins, it does not mount new ones.
	stray := forumPolicy(origin.MustParse("http://stray.example"))
	resp, _ = postReload(t, g, stray)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unmounted-origin reload: status %d, want 404", resp.StatusCode)
	}

	// GET on the reload path is refused.
	getResp := rawGet(t, g, g.Addr(), "/policyz/reload", nil)
	io.Copy(io.Discard, getResp.Body) //nolint:errcheck
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: status %d, want 405", getResp.StatusCode)
	}
}

// TestReloadUnreachableFromWebOrigin pins the admin isolation: the
// reload path under a mounted origin's Host header lands on that
// origin's handler like any other path — a web-reachable Host can
// never push policy.
func TestReloadUnreachableFromWebOrigin(t *testing.T) {
	n := web.NewNetwork()
	forum := origin.MustParse("http://forum.example")
	n.Register(forum, echoHandler("forum"))
	doc := forumPolicy(forum)
	g := startGateway(t, n, Config{
		Origins: map[string]policy.Policy{forum.String(): doc},
	})

	data, _ := json.Marshal(forumPolicy(forum))
	req, _ := http.NewRequest("POST", "http://"+g.Addr()+"/policyz/reload", bytes.NewReader(data))
	req.Host = "forum.example"
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body := readBody(t, resp)
	if !strings.Contains(body, "host=forum") {
		t.Fatalf("web-origin reload did not fall through to the vhost: %q", body)
	}
	if gen := g.Policies().Generation(); gen != 1 {
		t.Fatalf("web-origin reload moved the generation to %d", gen)
	}
}

// TestPolicyzWaitLongPoll pins the propagation wire: a ?wait poll
// parks until the generation moves, then answers with the new
// snapshot; an already-passed generation answers immediately; an
// expiring hold answers with the unchanged snapshot.
func TestPolicyzWaitLongPoll(t *testing.T) {
	n := web.NewNetwork()
	forum := origin.MustParse("http://forum.example")
	n.Register(forum, echoHandler("forum"))
	doc := forumPolicy(forum)
	g := startGateway(t, n, Config{
		Origins: map[string]policy.Policy{forum.String(): doc},
	})

	// Already passed: answers now.
	if got := fetchPolicyzDoc(t, g, "?wait=0"); got.Generation != 1 {
		t.Fatalf("wait=0 answered generation %d, want 1", got.Generation)
	}

	// Parked until the reload lands.
	type answer struct {
		doc policyzJSON
		dur time.Duration
	}
	got := make(chan answer, 1)
	start := time.Now()
	go func() {
		resp, err := http.Get("http://" + g.Addr() + "/policyz?wait=1&timeout=10000")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		var doc policyzJSON
		if json.NewDecoder(resp.Body).Decode(&doc) == nil {
			got <- answer{doc: doc, dur: time.Since(start)}
		}
	}()
	time.Sleep(25 * time.Millisecond)
	next := forumPolicy(forum)
	next.MaxRing = 2
	resp, _ := postReload(t, g, next)
	resp.Body.Close()
	select {
	case a := <-got:
		if a.doc.Generation != 2 {
			t.Fatalf("long poll answered generation %d, want 2", a.doc.Generation)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never woke on the reload")
	}

	// Expiring hold: answers with the unchanged generation.
	if got := fetchPolicyzDoc(t, g, "?wait=99&timeout=50"); got.Generation != 2 {
		t.Fatalf("expired wait answered generation %d, want 2", got.Generation)
	}
}

// TestThousandTenantsMounted mounts well past a thousand
// template-stamped tenants before Start and proves the gateway routes,
// reports, and serves policy at that scale, and that a mounted origin
// costs no goroutine of its own.
func TestThousandTenantsMounted(t *testing.T) {
	const tenants = 1024
	n := web.NewNetwork()
	h := scenarios.Handler()
	origins := make([]origin.Origin, tenants)
	docs := make(map[string]policy.Policy, tenants)
	for i := range origins {
		o := origin.MustParse(fmt.Sprintf("http://tenant-%04d.example", i))
		n.Register(o, h)
		origins[i] = o
		docs[o.String()] = scenarios.Policy(o)
	}
	g, err := New(Config{Inner: n, Origins: docs})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	before := runtime.NumGoroutine()
	for _, o := range origins {
		if err := g.Mount(o); err != nil {
			t.Fatalf("Mount %s: %v", o, err)
		}
	}
	// Every request runs on its own goroutine. The slack covers
	// goroutines of earlier tests still winding down, not one per
	// tenant.
	if grown := runtime.NumGoroutine() - before; grown > 8 {
		t.Fatalf("mounting %d tenants started %d goroutines", tenants, grown)
	}
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { g.Close() })

	resp := rawGet(t, g, "", "/healthz", nil)
	var health healthzJSON
	if err := json.Unmarshal([]byte(readBody(t, resp)), &health); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if health.Origins != tenants {
		t.Fatalf("healthz origins = %d, want %d", health.Origins, tenants)
	}

	// Sampled probes across the fleet: every sampled tenant routes and
	// serves its own policy document.
	for _, i := range []int{0, 1, tenants / 2, tenants - 1} {
		o := origins[i]
		page := rawGet(t, g, hostKey(o), "/s1", nil)
		if body := readBody(t, page); page.StatusCode != 200 || !strings.Contains(body, "<html") {
			t.Fatalf("tenant %d: status %d", i, page.StatusCode)
		}
		pol := rawGet(t, g, hostKey(o), PolicyPath, nil)
		got, err := policy.Parse([]byte(readBody(t, pol)))
		if err != nil || got.Origin != o.String() {
			t.Fatalf("tenant %d policy: %v (origin %q)", i, err, got.Origin)
		}
	}

	// The control plane carries all of them: one mount = one
	// generation bump, every document listed.
	doc := fetchPolicyzDoc(t, g, "")
	if doc.Generation != tenants || len(doc.Policies) != tenants {
		t.Fatalf("policyz: generation=%d documents=%d, want %d/%d",
			doc.Generation, len(doc.Policies), tenants, tenants)
	}
}
