package scenarios

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps/phpbb"
	"repro/internal/apps/phpcal"
	"repro/internal/nonce"
	"repro/internal/origin"
	"repro/internal/web"
)

// The response pin: every page the case-study apps serve at forum
// scale, in both hardening modes, with and without the ESCUDO
// configuration, logged in and out, with every nonce drawn from one
// SeqSource per app so the draw order across a whole session is part of
// the dump. Like the other goldens, the test only reads
// testdata/responses.golden.gz.

// Store sizes of the forum workload: 64 topics of 24 replies each, and
// a calendar of 281 events.
const (
	goldenTopics  = 64
	goldenReplies = 24
	goldenEvents  = 281
)

// userText is deterministic user content; every fifth piece carries
// markup and entities, so the hardened sanitizer has something to
// escape and the unhardened pages pass it through.
func userText(kind string, i int) string {
	s := fmt.Sprintf("%s %d lorem ipsum dolor", kind, i)
	if i%5 == 0 {
		s += fmt.Sprintf(` <b onclick="steal(%d)">it's & &amp; <i></div nonce=%d>`, i, i)
	}
	return s
}

// dumpResponse writes a response's status, its headers in key order
// and its body under a section header.
func dumpResponse(b *strings.Builder, name string, resp *web.Response) {
	fmt.Fprintf(b, "== %s ==\nstatus %d\n", name, resp.Status)
	keys := make([]string, 0, len(resp.Header))
	for k := range resp.Header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, v := range resp.Header[k] {
			fmt.Fprintf(b, "%s: %s\n", k, v)
		}
	}
	fmt.Fprintf(b, "body %d\n%s\n", len(resp.Body), resp.Body)
}

// forumResponses serves one forum instance: the index, three topic
// pages, a non-canonical and two unknown topic ids and the PM page,
// logged out and then logged in, then a reply (and one to a
// non-canonical id) and the replied topic again.
func forumResponses(t *testing.T, b *strings.Builder, hardened, escudo bool) {
	o := origin.MustParse("http://forum.example")
	a := phpbb.New(phpbb.Config{Origin: o, Hardened: hardened, Escudo: escudo, Nonces: nonce.NewSeqSource(1)})
	a.AddUser("alice", "pw")
	a.AddUser("bob", "pw")
	var ids []int
	for i := 0; i < goldenTopics; i++ {
		id := a.SeedTopic("bob", userText("subject", i), userText("body", i))
		for r := 0; r < goldenReplies; r++ {
			a.SeedReply(id, []string{"alice", "bob", "mallory"}[r%3], userText("reply", i*goldenReplies+r))
		}
		ids = append(ids, id)
	}
	for i := 0; i < 12; i++ {
		a.SeedPM([]string{"bob", "mallory"}[i%2], []string{"alice", "bob"}[i%3/2], userText("pm subject", i), userText("pm body", i))
	}
	sid, token, err := a.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	first, mid, last := ids[0], ids[goldenTopics/2], ids[goldenTopics-1]
	paths := []string{
		"/",
		"/viewtopic?t=" + strconv.Itoa(first),
		"/viewtopic?t=" + strconv.Itoa(mid),
		"/viewtopic?t=" + strconv.Itoa(last),
		"/viewtopic?t=0" + strconv.Itoa(mid),
		"/viewtopic?t=x",
		"/viewtopic?t=" + strconv.Itoa(last+1000),
		"/pm",
	}
	mode := fmt.Sprintf("phpbb hardened=%v escudo=%v", hardened, escudo)
	serve := func(name string, req *web.Request, loggedIn bool) {
		if loggedIn {
			req.Header.Set("Cookie", phpbb.CookieSID+"="+sid)
		}
		dumpResponse(b, fmt.Sprintf("%s loggedin=%v %s %s", mode, loggedIn, name, req.URL), a.Serve(req))
	}
	for _, loggedIn := range []bool{false, true} {
		for _, p := range paths {
			serve("GET", web.NewRequest("GET", o.URL(p)), loggedIn)
		}
	}
	for _, tid := range []string{strconv.Itoa(mid), "0" + strconv.Itoa(mid)} {
		req := web.NewRequest("POST", o.URL("/reply"))
		req.Form = url.Values{"t": {tid}, "message": {userText("posted reply", 5)}, "token": {token}}
		serve("POST t="+tid, req, true)
	}
	serve("GET", web.NewRequest("GET", o.URL("/viewtopic?t="+strconv.Itoa(mid))), true)
}

// calendarResponses serves one calendar instance's month view logged
// out and logged in. Events fall on days 0 to 32, so the days the grid
// does not show (0 and 32) are seeded too.
func calendarResponses(t *testing.T, b *strings.Builder, hardened, escudo bool) {
	o := origin.MustParse("http://cal.example")
	a := phpcal.New(phpcal.Config{Origin: o, Hardened: hardened, Escudo: escudo, Nonces: nonce.NewSeqSource(1)})
	a.AddUser("bob", "pw")
	for i := 0; i < goldenEvents; i++ {
		a.SeedEvent([]string{"bob", "eve"}[i%2], (i*7)%33, userText("event", i))
	}
	sid, err := a.Login("bob", "pw")
	if err != nil {
		t.Fatal(err)
	}
	mode := fmt.Sprintf("phpcal hardened=%v escudo=%v", hardened, escudo)
	for _, loggedIn := range []bool{false, true} {
		req := web.NewRequest("GET", o.URL("/"))
		if loggedIn {
			req.Header.Set("Cookie", phpcal.CookieSession+"="+sid)
		}
		dumpResponse(b, fmt.Sprintf("%s loggedin=%v GET %s", mode, loggedIn, req.URL), a.Serve(req))
	}
}

// responsesDump serves both apps in all four modes.
func responsesDump(t *testing.T) string {
	var b strings.Builder
	for _, hardened := range []bool{false, true} {
		for _, escudo := range []bool{true, false} {
			forumResponses(t, &b, hardened, escudo)
			calendarResponses(t, &b, hardened, escudo)
		}
	}
	return b.String()
}

func TestGoldenResponses(t *testing.T) {
	checkGolden(t, "responses.golden.gz", responsesDump(t))
}
