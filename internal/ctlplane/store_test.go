package ctlplane

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/policy"
)

func testPolicy(o string, maxRing core.Ring) policy.Policy {
	return policy.New(origin.MustParse(o), maxRing)
}

func TestStoreSetGetGeneration(t *testing.T) {
	s := NewStore()
	if g := s.Generation(); g != 0 {
		t.Fatalf("fresh store at generation %d, want 0", g)
	}
	gen, rev, err := s.Set(testPolicy("http://a.example", 3))
	if err != nil {
		t.Fatalf("Set: %v", err)
	}
	if gen != 1 || rev != 1 {
		t.Fatalf("first Set: gen=%d rev=%d, want 1/1", gen, rev)
	}
	gen, rev, err = s.Set(testPolicy("http://b.example", 2))
	if err != nil {
		t.Fatalf("Set b: %v", err)
	}
	if gen != 2 || rev != 1 {
		t.Fatalf("Set b: gen=%d rev=%d, want 2/1", gen, rev)
	}
	// Re-publishing a.example bumps the fleet generation AND the
	// per-origin revision.
	gen, rev, err = s.Set(testPolicy("http://a.example", 2))
	if err != nil {
		t.Fatalf("Set a rev 2: %v", err)
	}
	if gen != 3 || rev != 2 {
		t.Fatalf("Set a rev 2: gen=%d rev=%d, want 3/2", gen, rev)
	}
	p, rev, ok := s.Get("http://a.example")
	if !ok || rev != 2 || p.MaxRing != 2 {
		t.Fatalf("Get a: ok=%v rev=%d maxring=%d, want true/2/2", ok, rev, p.MaxRing)
	}
	if n := s.Snapshot().Len(); n != 2 {
		t.Fatalf("snapshot holds %d entries, want 2", n)
	}
}

func TestStoreRejectsInvalidLeavingOldMounted(t *testing.T) {
	s := NewStore()
	good := testPolicy("http://a.example", 3)
	if _, _, err := s.Set(good); err != nil {
		t.Fatalf("Set good: %v", err)
	}
	genBefore := s.Generation()

	bad := testPolicy("http://a.example", 3)
	bad.Version = 99
	if _, _, err := s.Set(bad); err == nil {
		t.Fatal("Set accepted an invalid document")
	}
	if g := s.Generation(); g != genBefore {
		t.Fatalf("rejected swap moved the generation: %d -> %d", genBefore, g)
	}
	p, rev, ok := s.Get("http://a.example")
	if !ok || rev != 1 || p.Version != policy.Version {
		t.Fatalf("old document disturbed by rejected swap: ok=%v rev=%d version=%d", ok, rev, p.Version)
	}
}

func TestStoreWaitWakesOnSwap(t *testing.T) {
	s := NewStore()
	mustSet(t, s, testPolicy("http://a.example", 3))

	got := make(chan uint64, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		got <- s.Wait(ctx, 1)
	}()
	time.Sleep(10 * time.Millisecond)
	mustSet(t, s, testPolicy("http://a.example", 2))
	select {
	case g := <-got:
		if g != 2 {
			t.Fatalf("Wait returned generation %d, want 2", g)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not wake on swap")
	}

	// A wait on an already-passed generation returns immediately.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if g := s.Wait(ctx, 0); g != 2 {
		t.Fatalf("immediate Wait returned %d, want 2", g)
	}

	// A wait whose context expires returns the current generation.
	short, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if g := s.Wait(short, 99); g != 2 {
		t.Fatalf("expired Wait returned %d, want 2", g)
	}
}

// TestStoreConcurrentSwapsAndReads hammers the COW swap under the race
// detector: readers must always observe internally consistent
// snapshots, and each reader's successive snapshots must never go back
// a generation.
func TestStoreConcurrentSwapsAndReads(t *testing.T) {
	s := NewStore()
	mustSet(t, s, testPolicy("http://a.example", 3))

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			// Monotonicity is a per-reader property: an atomic swap
			// promises that one goroutine's later load never sees an
			// older snapshot. Across readers there is no such order — one
			// reader may load generation 10 after another has loaded 12.
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				if snap.Gen < last {
					t.Errorf("snapshot generation went backwards: %d after %d", snap.Gen, last)
					return
				}
				last = snap.Gen
				snap.Each(func(o string, e Entry) {
					if e.Policy.Origin != o {
						t.Errorf("entry key %q holds document for %q", o, e.Policy.Origin)
					}
				})
			}
		}()
	}
	for w := 0; w < 4; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				o := fmt.Sprintf("http://w%d-%d.example", w, i%8)
				if _, _, err := s.Set(testPolicy(o, 3)); err != nil {
					t.Errorf("Set %s: %v", o, err)
					return
				}
			}
		}()
	}
	// Writers first; the readers spin until every swap has landed and
	// only then get the stop signal — stopping them before waiting on
	// them is what keeps this from deadlocking on itself.
	writers.Wait()
	close(stop)
	readers.Wait()
	// One seed set plus 4 writers × 200 sets, each one generation.
	if g := s.Generation(); g != 801 {
		t.Fatalf("generation %d after 801 sets, want 801", g)
	}
}

func TestStoreGaugeMirrorsGeneration(t *testing.T) {
	s := NewStore()
	reg := obs.NewRegistry()
	g := reg.Gauge("escudo_policy_generation")
	s.SetGauge(g)
	if g.Value() != 0 {
		t.Fatalf("gauge starts at %d, want 0", g.Value())
	}
	mustSet(t, s, testPolicy("http://a.example", 3))
	mustSet(t, s, testPolicy("http://b.example", 3))
	if g.Value() != 2 {
		t.Fatalf("gauge at %d after two swaps, want 2", g.Value())
	}
}

func mustSet(t *testing.T, s *Store, p policy.Policy) {
	t.Helper()
	if _, _, err := s.Set(p); err != nil {
		t.Fatalf("Set %s: %v", p.Origin, err)
	}
}
