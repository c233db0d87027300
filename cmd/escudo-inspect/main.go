// Command escudo-inspect loads an HTML document, labels it under
// ESCUDO, and dumps the resulting security contexts: the ring and ACL
// of every element, plus an access-query mode that answers "may a
// principal in ring R perform OP on element #ID?" — the adoption and
// debugging tool an application developer configuring rings would use.
//
// Usage:
//
//	escudo-inspect [-maxring N] [-policy policy.json]
//	               [-query ring:op:id[@guest-origin]] [file]
//	escudo-inspect -tracez host:port [-trace ID]
//	escudo-inspect -slowz host:port [-phase NAME]
//	escudo-inspect -policyz host:port [-watch]
//
// With no file, a built-in demonstration page (the paper's Figure 3
// blog shape) is inspected. -query may repeat.
//
// -policy loads a unified escudo.Policy document (the JSON a gateway
// serves per-origin at /.well-known/escudo-policy): the document is
// validated, its summary printed, its ring count used for labeling,
// and its §7 delegations mounted into the query monitor — a query
// suffixed @guest-origin then asks as a principal of that origin, so
// delegation floors can be inspected before deployment.
//
// -tracez switches to live-gateway mode: it fetches the decision-trace
// ring from a running gateway's admin /tracez endpoint and
// pretty-prints the audited decisions grouped by trace, so a developer
// can follow one page load's provenance — trace ID, span order,
// ⟨P ⊳ O⟩ triple, and verdict — without attaching a debugger. -trace
// narrows the fetch to a single trace ID.
//
// -slowz fetches the tail-exemplar ring from a running gateway's admin
// /slowz endpoint: the slowest retained requests per phase, each with
// its trace ID and per-stage latency breakdown — so a p99 on a
// dashboard always resolves to at least one concrete request. -phase
// narrows the fetch to one phase label. Trace IDs printed here join
// against -tracez, which shows the same request's authorization
// decisions.
//
// -policyz is the control-plane view: it fetches a running gateway's
// admin /policyz document and prints the fleet generation plus every
// mounted origin's policy version (rev, ring count, delegations).
// With -watch it then long-polls the endpoint and streams each
// generation flip as it lands — the operator's tail -f on a fleet-wide
// version push.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	escudo "repro"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/dom"
	"repro/internal/html"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/origin"
)

// demoPage is the paper's Figure 3 blog shape.
const demoPage = `<html><head><title>blog</title></head><body>
<div ring=2 r=1 w=0 x=2 nonce=3847 id=post>
  <p>The original blog post.</p>
  <script id=post-script>render();</script>
</div nonce=3847>
<div ring=3 r=2 w=0 x=2 nonce=9121 id=comment>
  <p>User comment with a hostile script:</p>
  <script id=evil>document.getElementById("post").innerHTML = "pwned";</script>
</div nonce=9121>
</body></html>`

type queryList []string

func (q *queryList) String() string     { return strings.Join(*q, ",") }
func (q *queryList) Set(s string) error { *q = append(*q, s); return nil }

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "escudo-inspect:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("escudo-inspect", flag.ContinueOnError)
	maxRing := fs.Int("maxring", 3, "page ring count N (overridden by -policy)")
	policyFile := fs.String("policy", "", "unified escudo.Policy JSON document to validate and mount")
	var queries queryList
	fs.Var(&queries, "query", "access query ring:op:id[@guest-origin] (repeatable), e.g. 3:write:post or 0:write:slot@http://widget.example")
	showRender := fs.Bool("render", false, "also print the text rendering")
	tracezAddr := fs.String("tracez", "", "fetch decision traces from a live gateway's admin /tracez at this host:port and pretty-print them")
	traceID := fs.String("trace", "", "with -tracez, show only this trace ID")
	slowzAddr := fs.String("slowz", "", "fetch tail exemplars from a live gateway's admin /slowz at this host:port and pretty-print them")
	phase := fs.String("phase", "", "with -slowz, show only this phase label")
	policyzAddr := fs.String("policyz", "", "fetch the mounted policy fleet from a live gateway's admin /policyz at this host:port and print per-origin versions")
	watch := fs.Bool("watch", false, "with -policyz, keep long-polling and stream generation flips as they land")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *tracezAddr != "" {
		return runTracez(*tracezAddr, *traceID)
	}
	if *traceID != "" {
		return fmt.Errorf("-trace needs -tracez (the gateway admin address to fetch from)")
	}
	if *slowzAddr != "" {
		return runSlowz(*slowzAddr, *phase)
	}
	if *phase != "" {
		return fmt.Errorf("-phase needs -slowz (the gateway admin address to fetch from)")
	}
	if *policyzAddr != "" {
		stop := make(chan struct{})
		if *watch {
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
			go func() {
				<-ch
				close(stop)
			}()
		}
		return runPolicyz(os.Stdout, *policyzAddr, *watch, stop)
	}
	if *watch {
		return fmt.Errorf("-watch needs -policyz (the gateway admin address to poll)")
	}

	markup := demoPage
	if fs.NArg() > 0 {
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		markup = string(data)
	}

	pageOrigin := origin.MustParse("http://inspected.example")
	ringCount := core.Ring(*maxRing)

	// The query monitor: a plain ERM, or — with a policy document —
	// the composed pipeline with the document's delegations mounted.
	monitor := escudo.Compose(&core.ERM{})
	if *policyFile != "" {
		data, err := os.ReadFile(*policyFile)
		if err != nil {
			return err
		}
		pol, err := escudo.ParsePolicy(data)
		if err != nil {
			return err
		}
		pageOrigin, err = origin.Parse(pol.Origin)
		if err != nil {
			return err
		}
		ringCount = pol.MaxRing
		dp, err := pol.DelegationPolicy()
		if err != nil {
			return err
		}
		monitor = escudo.Compose(&core.ERM{}, escudo.DelegationLayer(dp))
		fmt.Printf("Policy document %s: valid\n\n%s\n", *policyFile, pol.Summary())
	}

	doc := dom.NewDocument(pageOrigin, markup, html.Options{
		Escudo:  true,
		MaxRing: ringCount,
		// Top-level unlabeled content takes the fail-safe default.
		BaseRing: ringCount,
		BaseACL:  core.ACL{},
	})

	fmt.Printf("Labeled DOM (N=%d, origin %s):\n\n", ringCount, pageOrigin)
	dumpTree(doc.Root, 0)

	if bad := doc.CheckScopingInvariant(); bad != nil {
		fmt.Printf("\nWARNING: scoping invariant violated at %s\n", describe(bad))
	} else {
		fmt.Printf("\nScoping invariant: OK\n")
	}

	if len(queries) > 0 {
		fmt.Println("\nAccess queries:")
		for _, q := range queries {
			if err := answerQuery(monitor, doc, pageOrigin, ringCount, q); err != nil {
				return err
			}
		}
	}

	if *showRender {
		fmt.Println("\nRendering:")
		fmt.Println(layout.RenderText(layout.Layout(doc.Root, 72), 72))
	}
	return nil
}

// printPolicyzDoc renders one /policyz document: the fleet generation
// headline, then one line per origin in sorted order.
func printPolicyzDoc(out io.Writer, addr string, doc ctlplane.PolicyzDoc) error {
	fmt.Fprintf(out, "Policy fleet at %s — generation %d, %d origins\n", addr, doc.Generation, len(doc.Policies))
	origins := make([]string, 0, len(doc.Policies))
	for o := range doc.Policies {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	for _, o := range origins {
		pol, err := escudo.ParsePolicy(doc.Policies[o])
		if err != nil {
			return fmt.Errorf("policy document for %s: %w", o, err)
		}
		fmt.Fprintf(out, "  %-40s rev %-4d maxring %d, %d delegations\n",
			o, doc.Revs[o], pol.MaxRing, len(pol.Delegations))
	}
	return nil
}

// runPolicyz fetches and prints a live gateway's policy fleet; with
// watch it then streams generation flips (one line per flip, the
// origins whose rev moved) until stop closes.
func runPolicyz(out io.Writer, addr string, watch bool, stop <-chan struct{}) error {
	doc, err := ctlplane.FetchPolicyz(context.Background(), nil, "http", addr)
	if err != nil {
		return fmt.Errorf("fetching /policyz from %s: %w", addr, err)
	}
	if err := printPolicyzDoc(out, addr, doc); err != nil {
		return err
	}
	if !watch {
		return nil
	}

	// stop governs only the watch loop: it cancels a parked long poll
	// so an interrupt exits promptly instead of waiting out the hold.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-stop
		cancel()
	}()

	fmt.Fprintf(out, "\nwatching for flips (interrupt to stop)...\n")
	const hold = 10 * time.Second
	prev := doc
	for {
		next, err := ctlplane.FetchPolicyzWait(ctx, nil, "http", addr, prev.Generation, hold)
		if err != nil {
			if ctx.Err() != nil {
				return nil // interrupted mid-poll: a clean exit, not an error
			}
			return fmt.Errorf("long-polling /policyz: %w", err)
		}
		if next.Generation == prev.Generation {
			continue // hold expired unchanged; park again
		}
		// Name what moved: revs that changed or origins that appeared.
		var moved []string
		for o, rev := range next.Revs {
			if prev.Revs[o] != rev {
				moved = append(moved, fmt.Sprintf("%s rev %d", o, rev))
			}
		}
		sort.Strings(moved)
		fmt.Fprintf(out, "flip: generation %d → %d — %s\n",
			prev.Generation, next.Generation, strings.Join(moved, ", "))
		prev = next
		select {
		case <-ctx.Done():
			return nil
		default:
		}
	}
}

// tracezDoc mirrors the gateway's /tracez JSON document.
type tracezDoc struct {
	Total    uint64              `json:"total"`
	Retained int                 `json:"retained"`
	Matched  int                 `json:"matched"`
	Events   []obs.DecisionEvent `json:"events"`
}

// runTracez fetches the decision-trace ring from a live gateway and
// pretty-prints it, grouped by trace in span order.
func runTracez(addr, traceID string) error {
	u := "http://" + addr + "/tracez"
	if traceID != "" {
		u += "?trace=" + url.QueryEscape(traceID)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(u)
	if err != nil {
		return fmt.Errorf("fetching %s: %w", u, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("%s answered 404 — is this the gateway's admin host, and does the deployment wire a decision ring?", u)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s answered %d", u, resp.StatusCode)
	}
	var doc tracezDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("decoding /tracez: %w", err)
	}

	fmt.Printf("Decision traces at %s: %d recorded, %d retained, %d matched\n",
		addr, doc.Total, doc.Retained, doc.Matched)
	if len(doc.Events) == 0 {
		if traceID != "" {
			fmt.Printf("\nNo events for trace %s — the ring holds the last %d decisions, so older traces age out.\n",
				traceID, doc.Retained)
		}
		return nil
	}

	// Group by trace, preserving the order traces first appear; within
	// a trace the ring is already oldest-first, so spans come out
	// ascending.
	order := []string{}
	byTrace := map[string][]obs.DecisionEvent{}
	for _, e := range doc.Events {
		id := e.TraceID
		if id == "" {
			id = "(untraced)"
		}
		if _, ok := byTrace[id]; !ok {
			order = append(order, id)
		}
		byTrace[id] = append(byTrace[id], e)
	}
	for _, id := range order {
		events := byTrace[id]
		fmt.Printf("\ntrace %s — %d decisions:\n", id, len(events))
		for _, e := range events {
			verdict := "ALLOW"
			if !e.Allowed {
				verdict = "DENY "
			}
			fmt.Printf("  span %-4d %s %-28s %s on %s (ring %d, %s) [%s]\n",
				e.Span, verdict, e.Rule, e.Principal, e.Object, e.Ring, e.Origin, e.Op)
		}
	}
	return nil
}

// slowzDoc mirrors the gateway's /slowz JSON document.
type slowzDoc struct {
	Phases    []string           `json:"phases"`
	Size      int                `json:"size"`
	Exemplars []obs.SlowExemplar `json:"exemplars"`
}

// runSlowz fetches the tail-exemplar ring from a live gateway and
// pretty-prints it: one block per exemplar (slowest first, the order
// the endpoint serves), with the per-stage breakdown in pipeline
// order and each stage's share of the total.
func runSlowz(addr, phase string) error {
	u := "http://" + addr + "/slowz"
	if phase != "" {
		u += "?phase=" + url.QueryEscape(phase)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(u)
	if err != nil {
		return fmt.Errorf("fetching %s: %w", u, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("%s answered 404 — is this the gateway's admin host, and does the deployment wire a slow ring?", u)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s answered %d", u, resp.StatusCode)
	}
	var doc slowzDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("decoding /slowz: %w", err)
	}

	fmt.Printf("Tail exemplars at %s: phases [%s], slowest %d retained per phase\n",
		addr, strings.Join(doc.Phases, " "), doc.Size)
	if len(doc.Exemplars) == 0 {
		if phase != "" {
			fmt.Printf("\nNo exemplars for phase %q — known phases: %s\n", phase, strings.Join(doc.Phases, ", "))
		} else {
			fmt.Println("\nNo exemplars retained yet — the ring fills as requests complete.")
		}
		return nil
	}
	for _, ex := range doc.Exemplars {
		fmt.Printf("\n%.3f ms  trace %s  (phase %s)\n", float64(ex.TotalNs)/1e6, ex.TraceID, ex.Phase)
		// Stages print in pipeline order, not map order; batch_auth
		// nests inside script_vm/render, so shares are attribution,
		// not a partition of the total.
		for _, name := range obs.StageNames() {
			ns, ok := ex.Stages[name]
			if !ok || ns == 0 {
				continue
			}
			share := 0.0
			if ex.TotalNs > 0 {
				share = 100 * float64(ns) / float64(ex.TotalNs)
			}
			fmt.Printf("    %-12s %10.3f ms  (%5.1f%%)\n", name, float64(ns)/1e6, share)
		}
	}
	fmt.Println("\nTrace IDs join against -tracez: escudo-inspect -tracez " + addr + " -trace <ID>")
	return nil
}

// dumpTree prints the labeled tree.
func dumpTree(n *html.Node, depth int) {
	indent := strings.Repeat("  ", depth)
	switch n.Type {
	case html.ElementNode:
		ac := ""
		if n.IsACTag {
			ac = "  [AC tag]"
		}
		fmt.Printf("%s<%s>  ring=%d  acl{%s}%s\n", indent, describe(n), n.Ring, n.ACL, ac)
	case html.TextNode:
		text := strings.TrimSpace(n.Data)
		if text == "" {
			return
		}
		if len(text) > 40 {
			text = text[:40] + "…"
		}
		fmt.Printf("%s%q  ring=%d\n", indent, text, n.Ring)
	case html.DocumentNode:
		fmt.Printf("%s#document\n", indent)
	default:
		return
	}
	for _, k := range n.Kids {
		dumpTree(k, depth+1)
	}
}

func describe(n *html.Node) string {
	if id, ok := n.Attr("id"); ok {
		return n.Tag + "#" + id
	}
	return n.Tag
}

// answerQuery evaluates one ring:op:id[@guest-origin] query.
func answerQuery(m core.Monitor, doc *dom.Document, o origin.Origin, maxRing core.Ring, q string) error {
	parts := strings.Split(q, ":")
	if len(parts) < 3 {
		return fmt.Errorf("bad query %q (want ring:op:id[@guest-origin])", q)
	}
	ring, err := core.ParseRing(parts[0], core.MaxSupportedRing)
	if err != nil {
		return err
	}
	var op core.Op
	switch parts[1] {
	case "read":
		op = core.OpRead
	case "write":
		op = core.OpWrite
	case "use":
		op = core.OpUse
	default:
		return fmt.Errorf("bad op %q", parts[1])
	}
	// The id may carry a guest-origin suffix; the origin itself
	// contains ':', so rejoin the remaining parts before splitting on
	// '@'.
	idAndGuest := strings.Join(parts[2:], ":")
	id := idAndGuest
	principalOrigin := o
	label := fmt.Sprintf("ring-%d principal", ring)
	if at := strings.Index(idAndGuest, "@"); at >= 0 {
		id = idAndGuest[:at]
		principalOrigin, err = origin.Parse(idAndGuest[at+1:])
		if err != nil {
			return fmt.Errorf("bad guest origin in %q: %w", q, err)
		}
		label = fmt.Sprintf("ring-%d principal of %s", ring, principalOrigin)
	}
	node := doc.ByID(id)
	if node == nil {
		return fmt.Errorf("no element with id %q", id)
	}
	if ring > maxRing {
		return fmt.Errorf("query ring %d exceeds page ring count %d", ring, maxRing)
	}
	d := m.Authorize(core.Principal(principalOrigin, ring, label), op, doc.NodeContext(node))
	fmt.Printf("  %s\n", d)
	return nil
}
