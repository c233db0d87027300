package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	escudo "repro"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/httpd"
	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/scenarios"
	"repro/internal/web"
)

func TestRunDemoPage(t *testing.T) {
	if err := run([]string{"-query", "3:write:post", "-query", "0:write:post", "-render"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "page.html")
	if err := os.WriteFile(path, []byte(`<div ring=1 r=1 w=1 x=1 id=x>hi</div>`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-query", "1:read:x", path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"/does/not/exist.html"},
		{"-query", "nonsense"},
		{"-query", "9zz:read:post"},
		{"-query", "1:chew:post"},
		{"-query", "1:read:missing-id"},
		{"-bogus"},
		{"-maxring", "-1"},
		{"-maxring", "256"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

// TestRunTracez exercises the live-gateway mode: -tracez fetches the
// decision ring from a running gateway's admin endpoint, and -trace
// narrows it to one trace ID.
func TestRunTracez(t *testing.T) {
	ring := core.NewDecisionRing(16)
	site := origin.MustParse("http://site.example")
	evil := origin.MustParse("http://evil.example")
	ring.Record(core.Decision{
		TraceID: "aaaa-01", Span: 1, Allowed: true, Rule: core.RuleAllowed,
		Principal: core.Principal(site, 2, "script#app"), Op: core.OpRead,
		Object: core.Object(site, 2, core.UniformACL(2), "div#post"),
	})
	ring.Record(core.Decision{
		TraceID: "bbbb-02", Span: 1, Allowed: false, Rule: core.RuleRing,
		Principal: core.Principal(evil, 3, "script#evil"), Op: core.OpWrite,
		Object: core.Object(site, 1, core.UniformACL(1), "div#chrome"),
	})
	gw, _, cleanup, err := httpd.WrapNetwork(web.NewNetwork(), httpd.Config{Ring: ring}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	for _, args := range [][]string{
		{"-tracez", gw.Addr()},
		{"-tracez", gw.Addr(), "-trace", "aaaa-01"},
		{"-tracez", gw.Addr(), "-trace", "no-such-trace"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}

	// A gateway without a ring answers 404, which must surface as a
	// helpful error; -trace without -tracez is a usage error.
	bare, _, bareCleanup, err := httpd.WrapNetwork(web.NewNetwork(), httpd.Config{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bareCleanup()
	for _, args := range [][]string{
		{"-tracez", bare.Addr()},
		{"-trace", "aaaa-01"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

// TestRunSlowz exercises the tail-exemplar mode against a real
// gateway: -slowz fetches the slow ring from the admin endpoint,
// -phase narrows it, and the 404/usage failure paths surface as
// errors.
func TestRunSlowz(t *testing.T) {
	slow := obs.NewSlowRing(0)
	var stages [obs.NumStages]int64
	stages[obs.StageHandler] = 3_000_000
	stages[obs.StageBatchAuth] = 1_500_000
	slow.Record("openloop", "cccc-03", 5*time.Millisecond, stages)
	slow.Record("gateway", "dddd-04", 2*time.Millisecond, [obs.NumStages]int64{})
	gw, _, cleanup, err := httpd.WrapNetwork(web.NewNetwork(), httpd.Config{Slow: slow}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	for _, args := range [][]string{
		{"-slowz", gw.Addr()},
		{"-slowz", gw.Addr(), "-phase", "openloop"},
		{"-slowz", gw.Addr(), "-phase", "no-such-phase"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}

	// A gateway without a slow ring answers 404, which must surface as
	// a helpful error; -phase without -slowz is a usage error.
	bare, _, bareCleanup, err := httpd.WrapNetwork(web.NewNetwork(), httpd.Config{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bareCleanup()
	for _, args := range [][]string{
		{"-slowz", bare.Addr()},
		{"-phase", "openloop"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

// TestRunWithPolicy exercises the -policy path: a unified document is
// loaded, its ring count labels the page, and delegation queries
// answer through the mounted §7 layer.
func TestRunWithPolicy(t *testing.T) {
	dir := t.TempDir()
	pol := escudo.NewPolicy(escudo.MustParseOrigin("http://portal.example"), 3)
	pol.Cookies["portalsession"] = escudo.UniformAssignment(1)
	pol.Delegate(escudo.MustParseOrigin("http://widget.example"), 2)
	data, err := pol.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	polPath := filepath.Join(dir, "policy.json")
	if err := os.WriteFile(polPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	pagePath := filepath.Join(dir, "page.html")
	page := `<div ring=1 r=1 w=1 x=1 id=chrome>chrome</div><div ring=2 r=2 w=2 x=2 id=slot>slot</div>`
	if err := os.WriteFile(pagePath, []byte(page), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{
		"-policy", polPath,
		"-query", "0:write:slot@http://widget.example",
		"-query", "0:write:chrome@http://widget.example",
		"-query", "0:read:slot@http://rogue.example",
		"-query", "1:write:chrome",
		pagePath,
	}); err != nil {
		t.Fatal(err)
	}
	// Invalid documents and bad guest origins fail loudly.
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte(`{"version":7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-policy", badPath},
		{"-policy", filepath.Join(dir, "missing.json")},
		{"-policy", polPath, "-query", "0:read:slot@::nope::", pagePath},
		{"-policy", polPath, "-query", "9:read:slot", pagePath},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

// TestRunPolicyz exercises the control-plane view against a real
// gateway: the one-shot fleet listing, then -watch streaming a live
// reload as one flip line.
func TestRunPolicyz(t *testing.T) {
	n := web.NewNetwork()
	o := origin.MustParse("http://app.example")
	n.Register(o, scenarios.Handler())
	doc := scenarios.Policy(o)
	gw, _, cleanup, err := httpd.WrapNetwork(n, httpd.Config{
		Origins: map[string]policy.Policy{o.String(): doc},
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	var buf bytes.Buffer
	stop := make(chan struct{})
	close(stop) // one-shot: no watch loop to interrupt
	if err := runPolicyz(&buf, gw.Addr(), false, stop); err != nil {
		t.Fatalf("runPolicyz: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "generation 1, 1 origins") {
		t.Errorf("missing fleet headline in:\n%s", out)
	}
	if !strings.Contains(out, "http://app.example") || !strings.Contains(out, "rev 1") {
		t.Errorf("missing origin row in:\n%s", out)
	}

	// Watch mode: start the stream, push a reload, expect one flip
	// line, then stop.
	var watchBuf syncBuffer
	watchStop := make(chan struct{})
	watchErr := make(chan error, 1)
	go func() { watchErr <- runPolicyz(&watchBuf, gw.Addr(), true, watchStop) }()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(watchBuf.String(), "watching for flips") {
		if time.Now().After(deadline) {
			t.Fatal("watch stream never printed its header")
		}
		time.Sleep(5 * time.Millisecond)
	}
	doc2 := scenarios.Policy(o)
	doc2.MaxRing = 2
	data, err := doc2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctlplane.PostReload(context.Background(), nil, "http", gw.Addr(), data); err != nil {
		t.Fatalf("PostReload: %v", err)
	}
	for !strings.Contains(watchBuf.String(), "flip: generation 1 → 2") {
		if time.Now().After(deadline) {
			t.Fatalf("flip never streamed; output:\n%s", watchBuf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(watchBuf.String(), "http://app.example rev 2") {
		t.Errorf("flip line does not name the moved origin:\n%s", watchBuf.String())
	}
	close(watchStop)
	select {
	case err := <-watchErr:
		if err != nil {
			t.Fatalf("watch exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch loop did not stop")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the watch goroutine
// writes while the test polls String.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
