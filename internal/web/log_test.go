package web

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/origin"
)

// TestLogOrder asserts Log() returns entries in issue order.
func TestLogOrder(t *testing.T) {
	n := NewNetwork()
	n.Register(forum, HandlerFunc(func(req *Request) *Response { return HTML("ok") }))
	const reqs = 100
	for i := 0; i < reqs; i++ {
		if _, err := n.RoundTrip(NewRequest("GET", fmt.Sprintf("http://forum.example/p%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	log := n.Log()
	if len(log) != reqs {
		t.Fatalf("log = %d entries, want %d", len(log), reqs)
	}
	for i, e := range log {
		if want := fmt.Sprintf("/p%03d", i); e.Path != want {
			t.Fatalf("log[%d].Path = %q, want %q (out of issue order)", i, e.Path, want)
		}
	}
}

// TestLogOrderConcurrent checks the per-issuer ordering guarantee
// under parallel load: each worker's own requests must appear in the
// log in the order that worker issued them.
func TestLogOrderConcurrent(t *testing.T) {
	n := NewNetwork()
	n.Register(forum, HandlerFunc(func(req *Request) *Response { return HTML("ok") }))
	const workers, reqs = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				req := NewRequest("GET", fmt.Sprintf("http://forum.example/w%d/%d", w, i))
				if _, err := n.RoundTrip(req); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	log := n.Log()
	if len(log) != workers*reqs {
		t.Fatalf("log = %d entries, want %d", len(log), workers*reqs)
	}
	last := make([]int, workers)
	for i := range last {
		last[i] = -1
	}
	for _, e := range log {
		parts := strings.SplitN(strings.TrimPrefix(e.Path, "/w"), "/", 2)
		w, _ := strconv.Atoi(parts[0])
		i, _ := strconv.Atoi(parts[1])
		if i <= last[w] {
			t.Fatalf("worker %d request %d logged after request %d", w, i, last[w])
		}
		last[w] = i
	}
}

// TestRoundTripNoServerLogs502 is the regression test for unrouted
// origins: the request must fail with ErrNoServer AND leave a
// Status-502 log entry, so the attack harness still sees the attempt.
func TestRoundTripNoServerLogs502(t *testing.T) {
	n := NewNetwork()
	_, err := n.RoundTrip(NewRequest("GET", "http://nowhere.example/x"))
	if !errors.Is(err, ErrNoServer) {
		t.Fatalf("err = %v, want ErrNoServer", err)
	}
	log := n.Log()
	if len(log) != 1 {
		t.Fatalf("log = %d entries, want 1", len(log))
	}
	if log[0].Status != 502 {
		t.Errorf("Status = %d, want 502", log[0].Status)
	}
	if log[0].Path != "/x" {
		t.Errorf("Path = %q, want /x", log[0].Path)
	}
}

// TestRoundTripLogsSetCookieNames checks the response side of the log:
// Set-Cookie names must be recorded so the CSRF harness can observe
// session establishment, not just request-side cookie travel.
func TestRoundTripLogsSetCookieNames(t *testing.T) {
	n := NewNetwork()
	n.Register(forum, HandlerFunc(func(req *Request) *Response {
		resp := HTML("ok")
		resp.Header.Add("Set-Cookie", "sid=abc123; Path=/")
		resp.Header.Add("Set-Cookie", "theme=dark")
		return resp
	}))
	if _, err := n.RoundTrip(NewRequest("GET", "http://forum.example/login")); err != nil {
		t.Fatal(err)
	}
	log := n.Log()
	if len(log) != 1 {
		t.Fatalf("log = %d entries, want 1", len(log))
	}
	e := log[0]
	if !e.HasSetCookie("sid") || !e.HasSetCookie("theme") {
		t.Errorf("SetCookieNames = %v, want sid and theme", e.SetCookieNames)
	}
	if e.HasSetCookie("absent") {
		t.Error("HasSetCookie reports a cookie that was never set")
	}
}

// TestNetworkRaceHammer drives every Network operation from parallel
// goroutines — RoundTrip, Register, Log, FindRequests, ResetLog,
// LogLen — to verify the locked log and copy-on-write server table
// under the race detector (make race).
func TestNetworkRaceHammer(t *testing.T) {
	n := NewNetwork()
	n.Register(forum, HandlerFunc(func(req *Request) *Response { return HTML("a") }))
	other := origin.MustParse("http://other.example")
	const loops = 200
	var wg sync.WaitGroup
	// Round-trippers.
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				req := NewRequest("GET", fmt.Sprintf("http://forum.example/h%d-%d", w, i))
				req.Header.Set("Cookie", "sid=tok")
				if _, err := n.RoundTrip(req); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}()
	}
	// A registrar re-registering both origins.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			n.Register(other, HandlerFunc(func(req *Request) *Response { return HTML("b") }))
			n.Register(forum, HandlerFunc(func(req *Request) *Response { return HTML("a") }))
		}
	}()
	// Readers and a resetter.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			_ = n.Log()
			_ = n.FindRequests(forum, func(e LogEntry) bool { return e.HasCookie("sid") })
			_ = n.LogLen()
			if i%50 == 49 {
				n.ResetLog()
			}
		}
	}()
	wg.Wait()
}
