package phpbb

import (
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/raceflag"
	"repro/internal/web"
)

// TestServeAllocs holds every page to a constant number of server-side
// allocations: the same ceiling at two store sizes ten times apart.
// When pages copied the store and built each scope with fmt, the index,
// topic and PM pages here made 191, 224 and 244 allocations at size 10
// and 1,533, 1,626 and 1,874 at size 100.
func TestServeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, size := range []int{10, 100} {
		a := newApp(true)
		var target int
		for i := 0; i < size; i++ {
			target = a.SeedTopic("bob", "subject <b>"+itoa(i)+"</b>", "body & more")
			a.SeedPM("bob", "alice", "pm "+itoa(i), "a <i>private</i> message")
		}
		for r := 0; r < size; r++ {
			a.SeedReply(target, "bob", "a reply with <markup> & entities")
		}
		sid, _, err := a.Login("alice", "pw1")
		if err != nil {
			t.Fatal(err)
		}
		cookie := CookieSID + "=" + sid
		for _, path := range []string{"/", "/viewtopic?t=" + itoa(target), "/pm"} {
			u := forumOrigin.URL(path)
			n := testing.AllocsPerRun(20, func() {
				req := web.NewRequest("GET", u)
				req.Header.Set("Cookie", cookie)
				if resp := a.Serve(req); resp.Status != 200 {
					t.Fatalf("GET %s: status %d", path, resp.Status)
				}
			})
			t.Logf("GET %s over %d topics, replies and messages: %.0f allocations", path, size, n)
			if n > 48 {
				t.Errorf("GET %s over %d topics, replies and messages: %.0f allocations, want <= 48", path, size, n)
			}
		}
	}
}

// TestConcurrentViewAndReply races index and topic-page readers
// against writers replying to the topic they read and posting new
// topics: every page shows a reply (or topic) count between the
// store's counts before and after it was served.
func TestConcurrentViewAndReply(t *testing.T) {
	a := newApp(false)
	for i := 0; i < 8; i++ {
		id := a.SeedTopic("bob", "subject "+itoa(i), "body")
		for r := 0; r < 4; r++ {
			a.SeedReply(id, "bob", "seeded reply")
		}
	}
	target := a.Topics()[3].ID
	sid, _, err := a.Login("alice", "pw1")
	if err != nil {
		t.Fatal(err)
	}
	serve := func(method, path string, form url.Values) *web.Response {
		req := web.NewRequest(method, forumOrigin.URL(path))
		req.Header.Set("Cookie", CookieSID+"="+sid)
		req.Form = form
		return a.Serve(req)
	}
	replies := func() int {
		topic, _ := a.TopicByID(target)
		return len(topic.Replies)
	}
	topics := func() int { return len(a.Topics()) }

	const writers, readers, rounds = 2, 4, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if resp := serve("POST", "/reply", url.Values{"t": {itoa(target)}, "message": {"racing reply"}}); resp.Status != 303 {
					t.Errorf("reply: status %d", resp.Status)
				}
				if w == 0 {
					if resp := serve("GET", "/quickpost?subject=racing&message=topic", nil); resp.Status != 303 {
						t.Errorf("quickpost: status %d", resp.Status)
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				path, marker, count := "/viewtopic?t="+itoa(target), " id=reply-", replies
				if r%2 == 1 {
					path, marker, count = "/", " id=subject-", topics
				}
				before := count()
				resp := serve("GET", path, nil)
				after := count()
				if resp.Status != 200 {
					t.Errorf("GET %s: status %d", path, resp.Status)
					return
				}
				if n := strings.Count(resp.Body, marker); n < before || n > after {
					t.Errorf("GET %s shows %d scopes %q, store held %d before and %d after", path, n, marker, before, after)
				}
			}
		}(r)
	}
	wg.Wait()
	if got, want := replies(), 4+writers*rounds; got != want {
		t.Errorf("topic %d has %d replies, want %d", target, got, want)
	}
}
