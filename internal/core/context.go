package core

import (
	"fmt"

	"repro/internal/origin"
)

// PrincipalKind classifies the action-inducing entities of Table 1.
type PrincipalKind int

// Principal kinds (Table 1, left column). HTTP-request-issuing
// principals are HTML constructs that make the browser issue a
// request; script-invoking principals reach the JavaScript
// interpreter; plugins are out of scope for web-application control
// but are represented so the taxonomy is complete.
const (
	PrincipalHTTPRequest  PrincipalKind = iota + 1 // a, img, form, embed, iframe
	PrincipalScript                                // script tags, CSS expressions
	PrincipalEventHandler                          // onload, onmouseover, ...
	PrincipalPlugin                                // Flash, Silverlight, PDF (uncontrolled)
	PrincipalBrowser                               // the browser itself (ring 0 actor)
)

// String returns the taxonomy name of the principal kind.
func (k PrincipalKind) String() string {
	switch k {
	case PrincipalHTTPRequest:
		return "http-request-issuing"
	case PrincipalScript:
		return "script-invoking"
	case PrincipalEventHandler:
		return "ui-event-handler"
	case PrincipalPlugin:
		return "plugin"
	case PrincipalBrowser:
		return "browser"
	default:
		return fmt.Sprintf("principal(%d)", int(k))
	}
}

// ObjectKind classifies the resources of Table 1.
type ObjectKind int

// Object kinds (Table 1, right column).
const (
	ObjectDOM ObjectKind = iota + 1 // DOM elements and their content
	ObjectCookie
	ObjectNativeAPI    // XMLHttpRequest API, DOM API
	ObjectBrowserState // history, visited-link information
)

// String returns the taxonomy name of the object kind.
func (k ObjectKind) String() string {
	switch k {
	case ObjectDOM:
		return "dom"
	case ObjectCookie:
		return "cookie"
	case ObjectNativeAPI:
		return "native-api"
	case ObjectBrowserState:
		return "browser-state"
	default:
		return fmt.Sprintf("object(%d)", int(k))
	}
}

// Context is the security context ESCUDO maintains for every principal
// and object inside the browser (§6.1: "internally maintained data
// such as the ring assignments, domain, and ACL"). DOM elements act as
// both principals and objects, so one context type serves both roles.
type Context struct {
	// Origin is the web application the entity belongs to.
	Origin origin.Origin
	// Ring is the entity's protection ring within its page.
	Ring Ring
	// ACL further restricts access when the entity is an object.
	ACL ACL
	// Label is a human-readable description used in decision traces,
	// e.g. "script#ad" or "cookie phpbb2mysql_sid".
	Label string
	// ID is an element's id attribute, rendered after Label as
	// "tag#id". A DOM node's context keeps its tag in Label and its id
	// here, so building the context joins no strings: only a reader of
	// the rendering pays for the join.
	ID string
}

// Principal builds a principal context (no meaningful ACL).
func Principal(o origin.Origin, r Ring, label string) Context {
	return Context{Origin: o, Ring: r, ACL: UniformACL(r), Label: label}
}

// Object builds an object context with an explicit ACL.
func Object(o origin.Origin, r Ring, acl ACL, label string) Context {
	return Context{Origin: o, Ring: r, ACL: acl, Label: label}
}

// Name renders the label as traces show it: Label ("?" when empty),
// then "#ID" when the context has an id.
func (c Context) Name() string {
	name := c.Label
	if name == "" {
		name = "?"
	}
	if c.ID != "" {
		name += "#" + c.ID
	}
	return name
}

// String renders the context compactly for traces.
func (c Context) String() string {
	return fmt.Sprintf("%s@%s ring=%d [%s]", c.Name(), c.Origin, c.Ring, c.ACL)
}
