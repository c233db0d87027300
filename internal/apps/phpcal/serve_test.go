package phpcal

import (
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/raceflag"
	"repro/internal/web"
)

// TestServeAllocs holds the month view to a constant number of
// server-side allocations: the same ceiling at two store sizes ten
// times apart. With 31 day scans and a fmt-built scope per event it
// made 485 allocations at 29 events and 4,316 at 290.
func TestServeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, size := range []int{29, 290} {
		a, _, _ := newEnv(true)
		for i := 0; i < size; i++ {
			a.SeedEvent("bob", 1+i%31, "event <b>"+strconv.Itoa(i)+"</b> & more")
		}
		sid, err := a.Login("bob", "pw2")
		if err != nil {
			t.Fatal(err)
		}
		cookie := CookieSession + "=" + sid
		u := calOrigin.URL("/")
		n := testing.AllocsPerRun(20, func() {
			req := web.NewRequest("GET", u)
			req.Header.Set("Cookie", cookie)
			if resp := a.Serve(req); resp.Status != 200 {
				t.Fatalf("month view: status %d", resp.Status)
			}
		})
		t.Logf("month view over %d events: %.0f allocations", size, n)
		if n > 48 {
			t.Errorf("month view over %d events: %.0f allocations, want <= 48", size, n)
		}
	}
}

// version reads the n of a "v<n>" event text.
func version(t *testing.T, text string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(text, "v"))
	if err != nil {
		t.Errorf("event text %q is not a version", text)
	}
	return n
}

// TestConcurrentViewAndUpdate races month views against /update edits
// of one event's text: every view shows every event once, and the
// edited event at a version between the store's before and after the
// view was served.
func TestConcurrentViewAndUpdate(t *testing.T) {
	a, _, _ := newEnv(false)
	const events = 16
	for i := 0; i < events; i++ {
		a.SeedEvent("bob", 1+i%5, "v0")
	}
	target := a.Events()[7].ID
	sid, err := a.Login("bob", "pw2")
	if err != nil {
		t.Fatal(err)
	}
	serve := func(method, path string, form url.Values) *web.Response {
		req := web.NewRequest(method, calOrigin.URL(path))
		req.Header.Set("Cookie", CookieSession+"="+sid)
		req.Form = form
		return a.Serve(req)
	}
	current := func() int {
		e, _ := a.EventByID(target)
		return version(t, e.Text)
	}
	open := " id=event-" + strconv.Itoa(target) + ">"

	const readers, rounds = 4, 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; v <= rounds; v++ {
			form := url.Values{"id": {strconv.Itoa(target)}, "text": {"v" + strconv.Itoa(v)}}
			if resp := serve("POST", "/update", form); resp.Status != 303 {
				t.Errorf("update: status %d", resp.Status)
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				before := current()
				resp := serve("GET", "/", nil)
				after := current()
				if n := strings.Count(resp.Body, " id=event-"); n != events {
					t.Errorf("month view shows %d events, want %d", n, events)
					return
				}
				_, rest, ok := strings.Cut(resp.Body, open)
				if !ok {
					t.Errorf("month view lacks event %d", target)
					return
				}
				text, _, _ := strings.Cut(rest, "<")
				if v := version(t, text); v < before || v > after {
					t.Errorf("month view shows event %d at v%d, store held v%d before and v%d after", target, v, before, after)
				}
			}
		}()
	}
	wg.Wait()
	if got := current(); got != rounds {
		t.Errorf("event %d at v%d, want v%d", target, got, rounds)
	}
}
