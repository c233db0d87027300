package core

import (
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/raceflag"
)

func TestDecisionRingOverwriteAndFilter(t *testing.T) {
	r := NewDecisionRing(4)
	site := origin.MustParse("http://a.test")
	for i := 0; i < 6; i++ {
		d := Decision{TraceID: "t1", Object: Context{Origin: site, Ring: Ring(i % 3)}, Allowed: i%2 == 0}
		if i >= 3 {
			d.TraceID = "t2"
		}
		r.Record(d)
	}
	if r.Len() != 4 || r.Total() != 6 {
		t.Fatalf("Len=%d Total=%d, want 4/6", r.Len(), r.Total())
	}
	all := r.Snapshot(obs.MatchAny)
	if len(all) != 4 {
		t.Fatalf("snapshot len = %d", len(all))
	}
	// Oldest retained event is #3 (seq 3); newest is #6 (seq 6).
	if all[0].Seq != 3 || all[3].Seq != 6 {
		t.Fatalf("snapshot order: first seq %d, last seq %d", all[0].Seq, all[3].Seq)
	}
	if got := len(r.Snapshot(obs.RingFilter{TraceID: "t2", Ring: -1})); got != 3 {
		t.Fatalf("trace filter matched %d, want 3", got)
	}
	if got := len(r.Snapshot(obs.RingFilter{Verdict: "allow", Ring: -1})); got != 2 {
		t.Fatalf("allow filter matched %d, want 2", got)
	}
	if got := len(r.Snapshot(obs.RingFilter{Verdict: "deny", Ring: -1})); got != 2 {
		t.Fatalf("deny filter matched %d, want 2", got)
	}
	// Retained events carry rings 2,0,1,2 (i = 2..5 of i%3).
	if got := len(r.Snapshot(obs.RingFilter{Ring: 2})); got != 2 {
		t.Fatalf("ring filter matched %d, want 2", got)
	}
	if got := len(r.Snapshot(obs.RingFilter{Origin: "http://a.test", Ring: -1})); got != 4 {
		t.Fatalf("origin filter matched %d, want 4", got)
	}
}

// TestDecisionRingRendersOnRead pins the rendered event: the strings a
// snapshot carries are exactly the decision's own renderings.
func TestDecisionRingRendersOnRead(t *testing.T) {
	site := origin.MustParse("http://site.example")
	d := Decision{
		Allowed: false, Rule: RuleRing, Op: OpWrite,
		Principal: Principal(site, 3, "script#ad"),
		Object:    Object(site, 1, UniformACL(1), "div#chrome"),
		TraceID:   "t-9", Span: 4, PolicyGen: 7,
	}
	r := NewDecisionRing(2)
	r.Record(d)
	got := r.Snapshot(obs.MatchAny)
	want := obs.DecisionEvent{
		TraceID: "t-9", Span: 4, Seq: 1, Origin: site.String(), Ring: 1, Gen: 7,
		Allowed: false, Rule: RuleRing.String(),
		Principal: d.Principal.String(), Op: OpWrite.String(), Object: d.Object.String(),
	}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("snapshot %+v, want %+v", got, want)
	}
}

// TestDecisionRingRecordAllocs pins Record at zero allocations: it
// copies the decision into its slot and formats nothing.
func TestDecisionRingRecordAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	site := origin.MustParse("http://site.example")
	d := Decision{
		Allowed: true, Rule: RuleAllowed, Op: OpRead,
		Principal: Principal(site, 1, "script#app"),
		Object:    Object(site, 2, UniformACL(2), "div#post"),
		TraceID:   "t-1", Span: 1,
	}
	r := NewDecisionRing(64)
	if n := testing.AllocsPerRun(1000, func() { r.Record(d) }); n != 0 {
		t.Fatalf("Record allocates %.1f times per call, want 0", n)
	}
}

// TestDecisionRingConcurrent records from several goroutines while a
// reader snapshots: every record is counted, and every snapshot is
// oldest-first with consecutive sequence numbers.
func TestDecisionRingConcurrent(t *testing.T) {
	const writers, each, size = 4, 500, 64
	r := NewDecisionRing(size)
	site := origin.MustParse("http://site.example")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(Decision{Allowed: true, Object: Context{Origin: site, Ring: Ring(w)}})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		events := r.Snapshot(obs.MatchAny)
		for i := 1; i < len(events); i++ {
			if events[i].Seq != events[i-1].Seq+1 {
				t.Fatalf("snapshot seq %d follows %d", events[i].Seq, events[i-1].Seq)
			}
		}
	}
	if r.Total() != writers*each || r.Len() != size || len(r.Snapshot(obs.MatchAny)) != size {
		t.Fatalf("Total=%d Len=%d, want %d/%d", r.Total(), r.Len(), writers*each, size)
	}
}
