package scenarios

import (
	"strings"

	"repro/internal/core"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/web"
)

// SessionCookie is the ring-1 session cookie the scenario server sets,
// so that every navigation exercises the use-mediated cookie
// attachment path (the hot authorization in a logged-in workload).
const SessionCookie = "benchsid"

// Paths returns the URL path serving each scenario ("/s1" .. "/s8").
func Paths() []string {
	var out []string
	for _, sc := range All() {
		out = append(out, "/"+strings.ToLower(sc.Name))
	}
	return out
}

// Policy returns the scenario server's unified policy document for
// the origin it is mounted at: the default ring count with the ring-1
// session cookie — the same configuration Handler carries in headers.
func Policy(o origin.Origin) policy.Policy {
	p := policy.New(o, core.DefaultMaxRing)
	p.Cookies[SessionCookie] = policy.Uniform(1)
	return p
}

// Handler serves the Figure-4 scenario pages over the web substrate:
// GET /s1 .. /s8 return the generated markup with the page's ESCUDO
// configuration (ring count 3, the session cookie in ring 1), and "/"
// returns an index. The markup is generated once at construction, so
// the handler is safe for concurrent use.
func Handler() web.Handler {
	pages := map[string]string{}
	var index strings.Builder
	index.WriteString("<html><body><h1>Figure 4 scenarios</h1>")
	for _, sc := range All() {
		path := "/" + strings.ToLower(sc.Name)
		pages[path] = sc.Markup
		index.WriteString(`<p><a href="` + path + `">` + sc.Name + "</a></p>")
	}
	index.WriteString("</body></html>")
	cookieCfg := core.FormatCookieHeader(core.CookieConfig{
		Name: SessionCookie, Ring: 1, ACL: core.UniformACL(1),
	})
	return web.HandlerFunc(func(req *web.Request) *web.Response {
		body, ok := pages[req.Path()]
		if !ok {
			if req.Path() == "/" {
				body = index.String()
			} else {
				return web.NotFound()
			}
		}
		resp := web.HTML(body)
		resp.Header.Set(core.HeaderMaxRing, core.DefaultMaxRing.String())
		resp.Header.Add(core.HeaderCookie, cookieCfg)
		if _, has := req.Cookie(SessionCookie); !has {
			resp.Header.Add("Set-Cookie", SessionCookie+"=tok1; Path=/")
		}
		return resp
	})
}
