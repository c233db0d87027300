package httpd

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/origin"
	"repro/internal/web"
)

// startGatewayTLS is startGateway with a fresh ephemeral CA
// terminating https on the listener.
func startGatewayTLS(t *testing.T, n *web.Network, cfg Config) (*Gateway, *CA) {
	t.Helper()
	ca, err := NewCA()
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	cfg.Inner = n
	cfg.TLS = ca
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := g.MountNetwork(n); err != nil {
		t.Fatalf("MountNetwork: %v", err)
	}
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return g, ca
}

func tlsTestNetwork(t *testing.T, body string) (*web.Network, origin.Origin) {
	t.Helper()
	n := web.NewNetwork()
	o := origin.MustParse("http://app.example")
	n.Register(o, web.HandlerFunc(func(req *web.Request) *web.Response {
		resp := web.HTML(body)
		resp.Header.Set(core.HeaderMaxRing, core.DefaultMaxRing.String())
		return resp
	}))
	return n, o
}

// TestTLSServesOrigins drives a browser-shaped round trip over https
// and checks both the payload and that the transport really is TLS.
func TestTLSServesOrigins(t *testing.T) {
	n, o := tlsTestNetwork(t, "<html><body><p id=x>secure</p></body></html>")
	g, ca := startGatewayTLS(t, n, Config{})
	if !g.TLS() {
		t.Fatal("gateway does not report TLS")
	}
	ct := NewClientTransportTLS(g.Addr(), ca.Pool())
	defer ct.Close()
	if !ct.TLS() {
		t.Fatal("client transport does not report TLS")
	}
	resp, err := ct.RoundTrip(web.NewRequest("GET", o.URL("/")))
	if err != nil {
		t.Fatalf("RoundTrip over TLS: %v", err)
	}
	if resp.Status != 200 || resp.Body == "" {
		t.Fatalf("TLS response = %d %q", resp.Status, resp.Body)
	}

	// A client that does not trust the CA must be refused at the
	// handshake — the gateway's identity is not anonymous.
	plain := NewClientTransportTLS(g.Addr(), nil)
	defer plain.Close()
	if _, err := plain.RoundTrip(web.NewRequest("GET", o.URL("/"))); err == nil {
		t.Fatal("round trip with an empty trust pool succeeded")
	}
}

// TestTLSPerOriginLeafs pins the CA behavior: each SNI name gets its
// own leaf certificate carrying exactly that name, and SNI-less
// probes (admin clients dialing the IP) get the loopback default.
func TestTLSPerOriginLeafs(t *testing.T) {
	n, _ := tlsTestNetwork(t, "<html><body>leaf</body></html>")
	widget := origin.MustParse("http://widget.example")
	n.Register(widget, web.HandlerFunc(func(req *web.Request) *web.Response {
		return web.HTML("<html><body>w</body></html>")
	}))
	g, ca := startGatewayTLS(t, n, Config{})

	for _, host := range []string{"app.example", "widget.example"} {
		conn, err := tls.Dial("tcp", g.Addr(), &tls.Config{RootCAs: ca.Pool(), ServerName: host})
		if err != nil {
			t.Fatalf("handshake for %s: %v", host, err)
		}
		leaf := conn.ConnectionState().PeerCertificates[0]
		conn.Close()
		if len(leaf.DNSNames) != 1 || leaf.DNSNames[0] != host {
			t.Fatalf("leaf for %s carries names %v", host, leaf.DNSNames)
		}
	}

	// No SNI: dialing the raw IP address must still verify (admin
	// clients probing the listener do exactly this).
	conn, err := tls.Dial("tcp", g.Addr(), &tls.Config{RootCAs: ca.Pool()})
	if err != nil {
		t.Fatalf("SNI-less handshake: %v", err)
	}
	leaf := conn.ConnectionState().PeerCertificates[0]
	conn.Close()
	if len(leaf.IPAddresses) == 0 {
		t.Fatalf("default leaf has no IP SANs: %+v", leaf.DNSNames)
	}
}

// adminClient is an https client for the gateway's admin endpoints,
// trusting the given CA.
func adminClient(ca *CA) *http.Client {
	return &http.Client{
		Transport: &http.Transport{TLSClientConfig: &tls.Config{RootCAs: ca.Pool()}},
		Timeout:   5 * time.Second,
	}
}

// TestHealthzReadiness pins the health contract of a started TLS
// gateway: /livez answers 200, and /healthz answers 200 ready, with
// tls set — a gateway that serves is ready.
func TestHealthzReadiness(t *testing.T) {
	n, _ := tlsTestNetwork(t, "<html><body>r</body></html>")
	g, ca := startGatewayTLS(t, n, Config{})
	client := adminClient(ca)
	base := "https://" + g.Addr()

	resp, err := client.Get(base + "/livez")
	if err != nil {
		t.Fatalf("livez: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("livez status = %d, want 200", resp.StatusCode)
	}

	resp, err = client.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var h healthzJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || !h.Ready || !h.TLS {
		t.Fatalf("healthz = %d %+v, want 200 ok, ready, tls", resp.StatusCode, h)
	}
}

// TestClientConnReuse pins the keep-alive counters: a request stream
// from one transport reuses pooled connections, and the stats split
// new vs reused accordingly.
func TestClientConnReuse(t *testing.T) {
	n, o := tlsTestNetwork(t, "<html><body>ka</body></html>")
	g, ca := startGatewayTLS(t, n, Config{})
	ct := NewClientTransportTLS(g.Addr(), ca.Pool())
	defer ct.Close()

	const rounds = 6
	for i := 0; i < rounds; i++ {
		if _, err := ct.RoundTrip(web.NewRequest("GET", o.URL(fmt.Sprintf("/?i=%d", i)))); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	st := ct.Stats()
	if st.Requests != rounds {
		t.Fatalf("Requests = %d, want %d", st.Requests, rounds)
	}
	if st.NewConns < 1 {
		t.Fatalf("NewConns = %d, want >= 1", st.NewConns)
	}
	if st.ReusedConns == 0 {
		t.Fatalf("ReusedConns = 0 over %d sequential requests: %+v", rounds, st)
	}
	if st.NewConns+st.ReusedConns != st.Requests {
		t.Fatalf("conn counts don't cover requests: %+v", st)
	}
	if st.ReuseRate() <= 0 {
		t.Fatalf("ReuseRate = %v", st.ReuseRate())
	}
	// Delta math used by the per-phase BENCH rows.
	if d := ct.Stats().Sub(st); d.Requests != 0 || d.NewConns != 0 || d.ReusedConns != 0 {
		t.Fatalf("Sub of identical snapshots = %+v", d)
	}
}

// TestGracefulShutdownTLSInFlight pins the drain contract under TLS:
// requests in flight (including ones waiting in an origin's queue) when
// Shutdown begins all complete with full responses, and a second
// Shutdown is a no-op.
func TestGracefulShutdownTLSInFlight(t *testing.T) {
	n := web.NewNetwork()
	o := origin.MustParse("http://slow.example")
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	n.Register(o, web.HandlerFunc(func(req *web.Request) *web.Response {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return web.HTML("<html><body>done</body></html>")
	}))
	// One run slot and a deep queue: while the handler holds the first
	// request the rest wait in the origin queue — the drain must cover
	// them too.
	g, ca := startGatewayTLS(t, n, Config{DefaultWorkers: 1, DefaultQueueDepth: 32})
	// Cleanups run last-in first-out: a failing test releases the
	// handler before the gateway's Close drains the requests in flight.
	t.Cleanup(releaseAll)
	ct := NewClientTransportTLS(g.Addr(), ca.Pool())
	defer ct.Close()

	const inflight = 8
	results := make([]error, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ct.RoundTrip(web.NewRequest("GET", o.URL(fmt.Sprintf("/?i=%d", i))))
			if err == nil && (resp.Status != 200 || resp.Body == "") {
				err = fmt.Errorf("truncated response: %d %q", resp.Status, resp.Body)
			}
			results[i] = err
		}(i)
	}
	// Shut down only once the gateway holds all eight: one in the
	// handler, the other seven queued behind it. The queue cannot drain
	// while the handler blocks, so its length only grows.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no request reached the handler")
	}
	queue := g.table.Load().byOrigin[o].queue
	for deadline := time.Now().Add(5 * time.Second); len(queue) < inflight-1; {
		if time.Now().After(deadline) {
			t.Fatalf("gateway holds %d queued requests, want %d", len(queue), inflight-1)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- g.Shutdown(ctx) }()
	// Release the handler once the listener has closed, so all eight
	// requests are served across the drain.
	waitRefused(t, g.Addr())
	releaseAll()
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("request %d dropped during graceful TLS shutdown: %v", i, err)
		}
	}
	// Second Shutdown: no-op, returns promptly and cleanly.
	start := time.Now()
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("second Shutdown took %v", d)
	}
	// And the listener really is closed.
	if _, err := ct.RoundTrip(web.NewRequest("GET", o.URL("/"))); err == nil {
		t.Fatal("round trip succeeded after Shutdown")
	}
}

// waitRefused polls until a fresh dial to addr is refused: the
// listener has closed, so Shutdown is under way.
func waitRefused(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown began")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulShutdownLateH2Conn pins the drain against a connection
// that turns h2 after Shutdown began: accepted before the listener
// closed, its TLS handshake and h2 preface arrive only afterwards, and
// it opens no stream. net/http's h2 shutdown hook has already run by
// then, so the connection is never told to go away; Shutdown must
// still reach it and return long before its deadline.
func TestGracefulShutdownLateH2Conn(t *testing.T) {
	n, o := tlsTestNetwork(t, "<html><body>late</body></html>")
	g, ca := startGatewayTLS(t, n, Config{})
	addr := g.Addr()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	// The listener accepts in order, so once a later connection has
	// been served the raw one has been accepted too.
	ct := NewClientTransportTLS(addr, ca.Pool())
	if _, err := ct.RoundTrip(web.NewRequest("GET", o.URL("/"))); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	ct.Close()

	const deadline = 6 * time.Second
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		done <- g.Shutdown(ctx)
	}()
	waitRefused(t, addr)

	conn := tls.Client(raw, &tls.Config{RootCAs: ca.Pool(), ServerName: o.Host, NextProtos: []string{"h2"}})
	if err := conn.Handshake(); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if p := conn.ConnectionState().NegotiatedProtocol; p != "h2" {
		t.Fatalf("negotiated %q, want h2", p)
	}
	// The client preface and an empty SETTINGS frame: a live h2
	// connection with no stream on it.
	preface := append([]byte("PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"), 0, 0, 0, 0x4, 0, 0, 0, 0, 0)
	if _, err := conn.Write(preface); err != nil {
		t.Fatalf("preface: %v", err)
	}

	if err := <-done; err != nil {
		t.Fatalf("Shutdown after %v: %v", time.Since(start), err)
	}
	if d := time.Since(start); d > deadline/2 {
		t.Fatalf("Shutdown took %v of its %v deadline", d, deadline)
	}
}
