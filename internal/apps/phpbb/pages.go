package phpbb

import (
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/template"
	"repro/internal/web"
)

// Page generation. The layout mirrors §6.2: "The head portion of the
// page contains style information and some trusted JavaScript
// programs. These are all assigned to ring 0 ... The body tags are
// assigned to ring 1 ... Topics, replies, and private messages
// appearing inside the body are assigned to ring 3, but their ACL is
// configured so that they can be manipulated only by principals in
// ring 0, 1, and 2."
//
// The ESCUDO configuration lives in the page-assembly code (the
// "template" of the application); user-influenced strings are plugged
// into ring-3 AC scopes with fresh nonces. Each page is written in one
// pass into one buffer: no scope, id or escaped string is a string of
// its own.

// open appends the start of a scope's open tag: an AC tag with the
// label and a fresh nonce, or in legacy mode a plain div (nonce 0,
// whose closer is a plain </div>), so the same app runs on both sides
// of the §6.3 compatibility matrix. The caller appends the id
// attribute and '>'.
func (a *App) open(buf []byte, ring core.Ring, acl core.ACL) ([]byte, uint64) {
	if !a.cfg.Escudo {
		return append(buf, "<div"...), 0
	}
	return a.builder.AppendOpen(buf, ring, acl)
}

// openUser opens a ring-3 user-content scope with id=<kind>-<id>.
func (a *App) openUser(buf []byte, kind string, id int) ([]byte, uint64) {
	buf, n := a.open(buf, RingUser, ACLUser)
	buf = append(append(append(buf, " id="...), kind...), '-')
	return append(strconv.AppendInt(buf, int64(id), 10), '>'), n
}

// pageBufs recycles the buffers pages are written into: page copies
// the page out and returns its buffer, so a page allocates no buffer
// of its own, whatever the size of the store.
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

// page assembles the response around the body content in buf, the
// buffer bp held, and returns bp to pageBufs. The content's ring-3
// scopes have drawn their nonces already; the head and the body scope
// draw theirs after them. The chrome is appended behind the content
// and the page is copied once, in reading order, into the response
// body.
func (a *App) page(bp *[]byte, buf []byte, title string) *web.Response {
	content := len(buf)
	buf = append(buf, "<html>"...)
	buf, n := a.open(buf, 0, ACLHead)
	buf = append(append(append(buf, " id=head><title>"...), title...), `</title><script id=sitejs>var site = "phpBB";</script>`...)
	buf = append(template.AppendClose(buf, n), "<body>"...)
	buf, n = a.open(buf, RingApp, ACLApp)
	buf = append(buf, " id=appbody>"...)
	prefix := len(buf)
	buf = append(template.AppendClose(buf, n), "</body></html>"...)

	var b strings.Builder
	b.Grow(len(buf))
	b.Write(buf[content:prefix])
	b.Write(buf[:content])
	b.Write(buf[prefix:])
	*bp = buf[:0]
	pageBufs.Put(bp)
	resp := web.HTML(b.String())
	a.decorate(resp)
	return resp
}

// index renders GET /: announcement, topic list, login and posting
// forms.
func (a *App) index(req *web.Request) *web.Response {
	user, _, loggedIn := a.currentUser(req)

	bp := pageBufs.Get().(*[]byte)
	buf := append((*bp)[:0], `<h1 id=announcement>Community Forum</h1>`...)
	if loggedIn {
		buf = append(append(append(buf, `<p id=whoami>logged in as `...), user...), `</p>`...)
		buf = append(buf, `<form id=newtopic action="/posting" method="post">`+
			`<input name=subject value=""><textarea name=message></textarea>`...)
		buf = a.appendToken(buf, req)
		buf = append(buf, `<input type=submit value=Post></form>`...)
	} else {
		buf = append(buf, `<form id=loginform action="/login" method="post">`+
			`<input name=username value=""><input name=password value="">`+
			`<input type=submit value=Login></form>`...)
	}
	buf = append(buf, `<div id=topiclist>`...)
	// Topics are only ever appended, and a topic's ID and Subject
	// never change, so the slice header taken under the lock is all
	// the page needs.
	a.mu.Lock()
	topics := a.topics
	a.mu.Unlock()
	for _, t := range topics {
		buf = append(buf, `<p><a id=topic-link-`...)
		buf = strconv.AppendInt(buf, int64(t.ID), 10)
		buf = append(buf, ` href="/viewtopic?t=`...)
		buf = strconv.AppendInt(buf, int64(t.ID), 10)
		buf = append(buf, `">`...)
		buf = strconv.AppendInt(buf, int64(t.ID), 10)
		buf = append(buf, `</a></p>`...)
		// Topic subjects are user content: ring 3, unescaped in
		// unhardened mode.
		var n uint64
		buf, n = a.openUser(buf, "subject", t.ID)
		buf = template.AppendClose(a.appendSanitized(buf, t.Subject), n)
	}
	buf = append(buf, `</div>`...)
	return a.page(bp, buf, "Forum")
}

// viewTopic renders GET /viewtopic?t=N.
func (a *App) viewTopic(req *web.Request) *web.Response {
	// A topic's Author, Subject and Body never change after it is
	// created, and its replies are only ever appended: the reply
	// slice header taken under the lock is a consistent snapshot.
	id := req.Query().Get("t")
	a.mu.Lock()
	topic := a.topic(id)
	var replies []Post
	if topic != nil {
		replies = topic.Replies
	}
	a.mu.Unlock()
	if topic == nil {
		return web.NotFound()
	}
	bp := pageBufs.Get().(*[]byte)
	buf := append((*bp)[:0], `<h1 id=topichead>Topic `...)
	buf = strconv.AppendInt(buf, int64(topic.ID), 10)
	buf = append(append(append(buf, ` by `...), topic.Author...), `</h1>`...)
	// The original post and every reply are separate ring-3 scopes:
	// one user's message cannot manipulate another's (Table 3).
	buf, n := a.openUser(buf, "post", topic.ID)
	buf = append(a.appendSanitized(buf, topic.Subject), ' ')
	buf = template.AppendClose(a.appendSanitized(buf, topic.Body), n)
	for _, r := range replies {
		buf, n = a.openUser(buf, "reply", r.ID)
		buf = template.AppendClose(a.appendSanitized(buf, r.Body), n)
	}
	buf = append(buf, `<form id=replyform action="/reply" method="post"><input name=t value="`...)
	buf = strconv.AppendInt(buf, int64(topic.ID), 10)
	buf = append(buf, `"><textarea name=message></textarea>`...)
	buf = a.appendToken(buf, req)
	buf = append(buf, `<input type=submit value=Reply></form>`...)
	return a.page(bp, buf, "Topic "+strconv.Itoa(topic.ID))
}

// pmList renders GET /pm for the logged-in user.
func (a *App) pmList(req *web.Request) *web.Response {
	user, _, ok := a.currentUser(req)
	if !ok {
		return web.Forbidden("login required")
	}
	bp := pageBufs.Get().(*[]byte)
	buf := append((*bp)[:0], `<h1 id=pmhead>Private messages for `...)
	buf = append(append(buf, user...), `</h1>`...)
	// Messages are only ever appended, in ID order, and never change.
	a.mu.Lock()
	pms := a.pms
	a.mu.Unlock()
	for _, m := range pms {
		if m.To != user {
			continue
		}
		var n uint64
		buf, n = a.openUser(buf, "pm", m.ID)
		buf = append(append(append(buf, "from "...), m.From...), ": "...)
		buf = append(a.appendSanitized(buf, m.Subject), " — "...)
		buf = template.AppendClose(a.appendSanitized(buf, m.Body), n)
	}
	buf = append(buf, `<form id=pmform action="/pm_send" method="post">`+
		`<input name=to value=""><input name=subject value="">`+
		`<textarea name=message></textarea>`...)
	buf = a.appendToken(buf, req)
	buf = append(buf, `<input type=submit value=Send></form>`...)
	return a.page(bp, buf, "Private Messages")
}

// appendToken appends the hidden CSRF token input in hardened mode.
func (a *App) appendToken(buf []byte, req *web.Request) []byte {
	if !a.cfg.Hardened {
		return buf
	}
	_, sid, ok := a.currentUser(req)
	if !ok {
		return buf
	}
	a.mu.Lock()
	tok := a.tokens[sid]
	a.mu.Unlock()
	return append(append(append(buf, `<input type=hidden name=token value="`...), tok...), `">`...)
}
