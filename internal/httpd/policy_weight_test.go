package httpd

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

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
		Origins: map[string]OriginConfig{forum.String(): {Policy: &doc}},
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
// documents and documents naming a different origin never mount.
func TestMountRejectsBadPolicy(t *testing.T) {
	n := web.NewNetwork()
	forum := origin.MustParse("http://forum.example")
	n.Register(forum, echoHandler("forum"))
	g, err := New(Config{Inner: n})
	if err != nil {
		t.Fatal(err)
	}
	bad := forumPolicy(forum)
	bad.MaxRing = -1
	if err := g.MountOpts(forum, OriginConfig{Policy: &bad}); err == nil {
		t.Fatal("mounted an invalid policy")
	}
	other := forumPolicy(origin.MustParse("http://other.example"))
	if err := g.MountOpts(forum, OriginConfig{Policy: &other}); err == nil {
		t.Fatal("mounted a policy naming a different origin")
	}
}

// TestAdmissionWeightsShapeQueues pins the admission shapes: unset
// workers/queue take the gateway defaults, explicit values win.
func TestAdmissionWeightsShapeQueues(t *testing.T) {
	n := web.NewNetwork()
	a := origin.MustParse("http://a.example")
	b := origin.MustParse("http://b.example")
	c := origin.MustParse("http://c.example")
	for _, o := range []origin.Origin{a, b, c} {
		n.Register(o, echoHandler(o.Host))
	}
	g, err := New(Config{Inner: n, DefaultWorkers: 2, DefaultQueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Mount(a); err != nil {
		t.Fatal(err)
	}
	if err := g.MountOpts(b, OriginConfig{Workers: 6, QueueDepth: 24}); err != nil {
		t.Fatal(err)
	}
	if err := g.MountOpts(c, OriginConfig{Workers: 1, QueueDepth: 2}); err != nil {
		t.Fatal(err)
	}
	want := map[origin.Origin][2]int{a: {2, 8}, b: {6, 24}, c: {1, 2}}
	for o, shape := range want {
		vh := g.table.Load().byOrigin[o]
		if cap(vh.run) != shape[0] || cap(vh.queue) != shape[1] {
			t.Errorf("%s: workers=%d queue=%d, want %v", o, cap(vh.run), cap(vh.queue), shape)
		}
	}
}

// TestOverflowFairnessAcrossWeights wedges two origins — one with the
// default shape, one with twice its workers and queue — and floods
// both to capacity: the light origin overflows to 503 at its own bound
// while the heavy origin absorbs twice the load, and neither origin's
// overflow shows up on the other's counters.
func TestOverflowFairnessAcrossWeights(t *testing.T) {
	n := web.NewNetwork()
	light := origin.MustParse("http://light.example")
	heavy := origin.MustParse("http://heavy.example")
	release := make(chan struct{})
	started := make(chan string, 16)
	wedge := func(name string) web.Handler {
		return web.HandlerFunc(func(req *web.Request) *web.Response {
			started <- name
			<-release
			return web.HTML("done " + name)
		})
	}
	n.Register(light, wedge("light"))
	n.Register(heavy, wedge("heavy"))

	g, err := New(Config{
		Inner:             n,
		DefaultWorkers:    1,
		DefaultQueueDepth: 1,
		Origins:           map[string]OriginConfig{heavy.String(): {Workers: 2, QueueDepth: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.MountNetwork(n); err != nil {
		t.Fatal(err)
	}
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	var releaseOnce sync.Once
	releaseFn := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(releaseFn)

	get := func(host string) int {
		req, _ := http.NewRequest("GET", "http://"+g.Addr()+"/", nil)
		req.Host = host
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return -1
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}
	// fill launches in-flight requests until the origin's run slots are
	// busy and its queue is full, deterministically: running requests
	// signal via started, waiting ones are observed through the queue
	// length.
	var wg sync.WaitGroup
	fill := func(o origin.Origin, workers, depth int) {
		t.Helper()
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); get(hostKey(o)) }()
			select {
			case <-started:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s request %d never reached the handler", o, i)
			}
		}
		vh := g.table.Load().byOrigin[o]
		for i := 0; i < depth; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); get(hostKey(o)) }()
		}
		deadline := time.Now().Add(5 * time.Second)
		for len(vh.queue) < depth {
			if time.Now().After(deadline) {
				t.Fatalf("%s queue never filled (%d/%d)", o, len(vh.queue), depth)
			}
			time.Sleep(time.Millisecond)
		}
	}

	fill(light, 1, 1) // capacity 2
	fill(heavy, 2, 2) // capacity 4: twice the admission

	// Both origins at capacity: each overflows within its own bound.
	if code := get(hostKey(light)); code != 503 {
		t.Fatalf("light overflow: %d, want 503", code)
	}
	if code := get(hostKey(heavy)); code != 503 {
		t.Fatalf("heavy overflow: %d, want 503", code)
	}

	// Fairness: the drops landed on the origin that overflowed, not on
	// its neighbor, and the weighted origin absorbed twice the traffic.
	table := g.table.Load()
	lightVH, heavyVH := table.byOrigin[light], table.byOrigin[heavy]
	if lightVH.dropped.Value() != 1 || heavyVH.dropped.Value() != 1 {
		t.Fatalf("dropped: light=%d heavy=%d, want 1 each",
			lightVH.dropped.Value(), heavyVH.dropped.Value())
	}
	releaseFn()
	wg.Wait()
	if ls, hs := lightVH.served.Value(), heavyVH.served.Value(); ls != 2 || hs != 4 {
		t.Fatalf("served: light=%d heavy=%d, want 2 and 4", ls, hs)
	}
	if st := g.Stats(); st.Rejected503 != 2 {
		t.Fatalf("Rejected503 = %d, want 2", st.Rejected503)
	}
}
