package ctlplane_test

// The watcher tests run against a real gateway over loopback — the
// same wire a production subscriber would poll — so they live in the
// external test package (the gateway imports ctlplane).

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/httpd"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/scenarios"
	"repro/internal/web"
)

func startGateway(t *testing.T) (*httpd.Gateway, origin.Origin) {
	t.Helper()
	n := web.NewNetwork()
	o := origin.MustParse("http://app.example")
	n.Register(o, scenarios.Handler())
	doc := scenarios.Policy(o)
	g, err := httpd.New(httpd.Config{
		Inner:   n,
		Origins: map[string]policy.Policy{o.String(): doc},
	})
	if err != nil {
		t.Fatalf("httpd.New: %v", err)
	}
	if err := g.Mount(o); err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return g, o
}

// TestWatcherObservesFlips drives a real long-poll subscription: the
// watcher syncs to the mount generation, then observes each pushed
// reload as exactly one flip, with OnFlip running after Generation()
// has advanced.
func TestWatcherObservesFlips(t *testing.T) {
	g, o := startGateway(t)

	flips := make(chan uint64, 8)
	var genAtFlip atomic.Uint64
	var w *ctlplane.Watcher
	w = ctlplane.NewWatcher(ctlplane.WatcherConfig{
		Addr:         g.Addr(),
		HoldFor:      2 * time.Second,
		PollInterval: 20 * time.Millisecond,
		OnFlip: func(gen uint64) {
			genAtFlip.Store(w.Generation())
			flips <- gen
		},
	})
	if err := w.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(w.Stop)
	if got := w.Generation(); got != 1 {
		t.Fatalf("synced generation = %d, want 1 (the mount seed)", got)
	}

	// Push two reloads; each must surface as one flip, in order.
	for i, maxRing := range []core.Ring{2, 1} {
		doc := scenarios.Policy(o)
		doc.MaxRing = maxRing
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		res, err := ctlplane.PostReload(context.Background(), nil, "http", g.Addr(), data)
		if err != nil {
			t.Fatalf("PostReload %d: %v", i, err)
		}
		want := uint64(2 + i)
		if res.Generation != want {
			t.Fatalf("reload %d accepted at generation %d, want %d", i, res.Generation, want)
		}
		select {
		case gen := <-flips:
			if gen != want {
				t.Fatalf("flip %d observed generation %d, want %d", i, gen, want)
			}
			if genAtFlip.Load() != want {
				t.Fatalf("OnFlip ran before Generation() advanced (%d)", genAtFlip.Load())
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("flip %d never observed", i)
		}
	}
	if got := w.Generation(); got != 3 {
		t.Fatalf("final generation = %d, want 3", got)
	}
	st := w.Stats()
	if st.Flips != 2 {
		t.Fatalf("stats = %+v, want 2 flips", st)
	}
}

// TestWatcherSyncIsNotAFlip pins the first-observation contract:
// syncing to whatever generation the gateway is already at must not
// fire OnFlip — nothing ran under an earlier generation.
func TestWatcherSyncIsNotAFlip(t *testing.T) {
	g, _ := startGateway(t)
	fired := make(chan uint64, 1)
	w := ctlplane.NewWatcher(ctlplane.WatcherConfig{
		Addr:         g.Addr(),
		PollInterval: 20 * time.Millisecond,
		OnFlip:       func(gen uint64) { fired <- gen },
	})
	if err := w.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(w.Stop)
	select {
	case gen := <-fired:
		t.Fatalf("sync fired OnFlip (generation %d)", gen)
	case <-time.After(150 * time.Millisecond):
	}
	if st := w.Stats(); st.Flips != 0 || st.Polls == 0 {
		t.Fatalf("stats after sync = %+v", st)
	}
}

// TestFetchPolicyz reads the full document the inspect tool renders.
func TestFetchPolicyz(t *testing.T) {
	g, o := startGateway(t)
	doc, err := ctlplane.FetchPolicyz(context.Background(), nil, "http", g.Addr())
	if err != nil {
		t.Fatalf("FetchPolicyz: %v", err)
	}
	if doc.Generation != 1 || len(doc.Policies) != 1 {
		t.Fatalf("doc = gen %d, %d policies", doc.Generation, len(doc.Policies))
	}
	if doc.Revs[o.String()] != 1 {
		t.Fatalf("revs = %+v", doc.Revs)
	}
}
