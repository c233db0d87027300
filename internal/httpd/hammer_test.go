package httpd

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/browser"
	"repro/internal/engine"
	"repro/internal/origin"
	"repro/internal/web"
)

// TestGatewayHammer pounds one gateway from many concurrent clients
// across three origins with heterogeneous handlers — a fixed fixture, a
// Set-Cookie-issuing app, and a plain echo — so the vhost table and
// the stats counters and latency histograms all see real contention.
// Run under -race this is the gateway's data-race regression test.
func TestGatewayHammer(t *testing.T) {
	n := web.NewNetwork()
	fixtureO := origin.MustParse("http://fixture.example")
	n.Register(fixtureO, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML("<html><body><p>fixed fixture</p></body></html>")
	}))
	appO := origin.MustParse("http://app.example")
	n.Register(appO, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML("<html><body><p>app page</p></body></html>")
		if _, has := req.Cookie("sid"); !has {
			resp.Header.Add("Set-Cookie", "sid=tok; Path=/")
		}
		return resp
	}))
	echoO := origin.MustParse("http://echo.example")
	n.Register(echoO, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML("<html><body><p>" + req.Query().Get("q") + "</p></body></html>")
	}))

	g := startGateway(t, n, Config{})

	const clients = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each client owns its transport and browser — separate
			// sockets, separate jars — like independent users.
			ct := NewClientTransport(g.Addr())
			defer ct.Close()
			b := browser.New(ct, browser.Options{Mode: browser.ModeEscudo, DisableRender: true})
			for r := 0; r < rounds; r++ {
				var target string
				switch (c + r) % 3 {
				case 0:
					target = fixtureO.URL("/")
				case 1:
					target = appO.URL("/")
				default:
					target = echoO.URL(fmt.Sprintf("/?q=c%dr%d", c, r))
				}
				if _, err := b.Navigate(target); err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", c, r, err)
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := g.Stats()
	if want := uint64(clients * rounds); st.Served != want {
		t.Fatalf("served %d, want %d", st.Served, want)
	}
	// Every fixture navigation reached the origin's handler.
	fixtureVisits := 0
	for c := 0; c < clients; c++ {
		for r := 0; r < rounds; r++ {
			if (c+r)%3 == 0 {
				fixtureVisits++
			}
		}
	}
	if got := len(n.FindRequests(fixtureO, nil)); got != fixtureVisits {
		t.Fatalf("fixture origin logged %d requests, want %d", got, fixtureVisits)
	}

	// /varz renders the same counters the hammer raced.
	resp := rawGet(t, g, "", "/varz", nil)
	body := readBody(t, resp)
	for _, want := range []string{
		fmt.Sprintf("escudo_gateway_served_total %d\n", clients*rounds),
		fmt.Sprintf("escudo_origin_served_total{origin=%q} %d\n", fixtureO.String(), fixtureVisits),
		fmt.Sprintf("escudo_origin_latency_seconds_count{origin=%q} %d\n", fixtureO.String(), fixtureVisits),
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/varz missing %q:\n%s", want, body)
		}
	}
}

// TestEnginePoolOverGateway runs the engine's session pool with its
// transport pointed at the gateway — the exact client/server split the
// load driver uses — and checks the pool's stats pipeline end to end.
func TestEnginePoolOverGateway(t *testing.T) {
	n := web.NewNetwork()
	o := origin.MustParse("http://pool.example")
	n.Register(o, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML("<html><body><p>pooled</p></body></html>")
	}))
	g := startGateway(t, n, Config{})
	ct := NewClientTransport(g.Addr())
	defer ct.Close()

	pool, err := engine.NewPool(engine.Config{
		Sessions:  4,
		Transport: ct,
		Options:   browser.Options{Mode: browser.ModeEscudo, DisableRender: true},
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	defer pool.Close()

	for i := 0; i < 32; i++ {
		if err := pool.Submit(func(s *engine.Session) error {
			_, err := s.Browser.Navigate(o.URL("/"))
			return err
		}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	pool.Wait()
	st := pool.Stats()
	if st.Tasks != 32 || len(st.Errors) != 0 {
		t.Fatalf("pool stats over gateway: tasks %d errors %v", st.Tasks, st.Errors)
	}
	if g.Stats().Served != 32 {
		t.Fatalf("gateway served %d, want 32", g.Stats().Served)
	}
}
