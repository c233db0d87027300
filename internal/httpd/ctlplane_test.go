package httpd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
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
		Origins: map[string]OriginConfig{forum.String(): {Policy: &doc}},
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
	// pushes versions to mounted tenants, it does not mount new ones.
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
		Origins: map[string]OriginConfig{forum.String(): {Policy: &doc}},
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
		Origins: map[string]OriginConfig{forum.String(): {Policy: &doc}},
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

// TestUnmountLive pins live removal: the origin stops routing (marked
// no-server 502, the in-memory unregistered contract), a request
// waiting in its queue is rescued, the rest of the fleet is untouched,
// and the policy store drops the document.
func TestUnmountLive(t *testing.T) {
	n := web.NewNetwork()
	stay := origin.MustParse("http://stay.example")
	leave := origin.MustParse("http://leave.example")
	n.Register(stay, echoHandler("stay"))
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	n.Register(leave, web.HandlerFunc(func(req *web.Request) *web.Response {
		started <- struct{}{}
		<-release
		return web.HTML("done")
	}))

	leaveDoc := scenarios.Policy(leave)
	g, err := New(Config{Inner: n})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := g.Mount(stay); err != nil {
		t.Fatalf("Mount stay: %v", err)
	}
	if err := g.MountOpts(leave, OriginConfig{Workers: 1, QueueDepth: 4, Policy: &leaveDoc}); err != nil {
		t.Fatalf("Mount leave: %v", err)
	}
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	var releaseOnce sync.Once
	releaseFn := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(releaseFn)

	// Wedge the single run slot (request A), then park request B on
	// the queue.
	codes := make(chan int, 2)
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
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); codes <- get("leave.example") }()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("wedged handler never started")
	}
	vh := g.table.Load().byOrigin[leave]
	wg.Add(1)
	go func() { defer wg.Done(); codes <- get("leave.example") }()
	deadline := time.Now().Add(5 * time.Second)
	for len(vh.queue) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request B never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	g.Unmount(leave)

	// B was waiting on the retired origin: it must be rescued with the
	// no-server contract while A still holds the handler, not strand.
	// A was already in its handler and finishes normally once released.
	for _, want := range []int{502, 200} {
		if want == 200 {
			releaseFn()
		}
		select {
		case c := <-codes:
			if c != want {
				t.Fatalf("request answered %d across Unmount, want %d", c, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("request stranded across Unmount")
		}
	}

	// New requests to the unmounted origin take the fallback path: the
	// inner network has a handler registered, so they still answer —
	// but the vhost (admission bounds, policy) is gone.
	if _, _, ok := g.Policies().Get(leave.String()); ok {
		t.Fatal("unmounted origin's policy still in the store")
	}
	if _, mounted := g.table.Load().byOrigin[leave]; mounted {
		t.Fatal("unmounted origin still in the table")
	}

	// The rest of the fleet never noticed.
	if code := get("stay.example"); code != 200 {
		t.Fatalf("neighbor origin answered %d after unmount", code)
	}
}

// TestMountChurnUnderLoad hammers live mount/unmount against steady
// traffic: the COW table swap must never disturb an established
// tenant, and the race detector audits the lock-free read path.
func TestMountChurnUnderLoad(t *testing.T) {
	n := web.NewNetwork()
	stable := origin.MustParse("http://stable.example")
	n.Register(stable, echoHandler("stable"))
	churn := make([]origin.Origin, 16)
	for i := range churn {
		churn[i] = origin.MustParse(fmt.Sprintf("http://churn-%02d.example", i))
		n.Register(churn[i], echoHandler("churn"))
	}
	g := startGateway(t, n, Config{DefaultWorkers: 1, DefaultQueueDepth: 8})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Steady traffic against the stable tenant.
	var served, failed int
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 5 * time.Second}
		for {
			select {
			case <-stop:
				return
			default:
			}
			req, _ := http.NewRequest("GET", "http://"+g.Addr()+"/p", nil)
			req.Host = "stable.example"
			resp, err := client.Do(req)
			if err != nil {
				failed++
				continue
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == 200 {
				served++
			} else {
				failed++
			}
		}
	}()
	// Four churners mounting and unmounting their own slice.
	for c := 0; c < 4; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				o := churn[(c*4+i)%len(churn)]
				doc := scenarios.Policy(o)
				if err := g.MountOpts(o, OriginConfig{Workers: 1, QueueDepth: 2, Policy: &doc}); err == nil {
					// Mounted tenants must route while mounted.
					req, _ := http.NewRequest("GET", "http://"+g.Addr()+"/p", nil)
					req.Host = hostKey(o)
					if resp, err := http.DefaultClient.Do(req); err == nil {
						io.Copy(io.Discard, resp.Body) //nolint:errcheck
						resp.Body.Close()
					}
					g.Unmount(o)
				}
			}
		}()
	}
	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()
	if failed > 0 || served == 0 {
		t.Fatalf("stable tenant disturbed by churn: served=%d failed=%d", served, failed)
	}
}

// TestThousandTenantsMounted mounts well past a thousand
// template-stamped tenants on a started gateway and proves the fleet
// routes, reports, and serves policy at that scale, and that a mounted
// origin costs no goroutine of its own.
func TestThousandTenantsMounted(t *testing.T) {
	const tenants = 1024
	n := web.NewNetwork()
	origins := scenarios.RegisterTenants(n, tenants)
	g, err := New(Config{Inner: n, DefaultWorkers: 1, DefaultQueueDepth: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	before := runtime.NumGoroutine()
	for _, o := range origins {
		doc := scenarios.Policy(o)
		if err := g.MountOpts(o, OriginConfig{Workers: 1, QueueDepth: 4, Policy: &doc}); err != nil {
			t.Fatalf("MountOpts %s: %v", o, err)
		}
	}
	// Admission runs on each request's own goroutine. The slack covers
	// goroutines of earlier tests still winding down, not one per
	// tenant.
	if grown := runtime.NumGoroutine() - before; grown > 8 {
		t.Fatalf("mounting %d tenants started %d goroutines", tenants, grown)
	}

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
