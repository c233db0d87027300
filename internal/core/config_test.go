package core

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/raceflag"
)

// lookup is the attribute lookup ParseACAttrs takes, over a map.
func lookup(m map[string]string) func(string) (string, bool) {
	return func(name string) (string, bool) {
		v, ok := m[name]
		return v, ok
	}
}

func TestParseACAttrsFigure2(t *testing.T) {
	// Figure 2's outer tag: <div ring=2 r=1 w=0 x=2>.
	got := ParseACAttrs(lookup(map[string]string{"ring": "2", "r": "1", "w": "0", "x": "2"}), 3, 0)
	if !got.HasRing {
		t.Fatal("tag with ring attribute must be an AC tag")
	}
	if got.Ring != 2 {
		t.Errorf("Ring = %d, want 2", got.Ring)
	}
	if want := (ACL{Read: 1, Write: 0, Use: 2}); got.ACL != want {
		t.Errorf("ACL = %v, want %v", got.ACL, want)
	}
}

func TestParseACAttrsScopingRule(t *testing.T) {
	// §5: children are bounded by the parent's ring even if the
	// markup claims otherwise.
	got := ParseACAttrs(lookup(map[string]string{"ring": "0"}), 3, 2)
	if got.Ring != 2 {
		t.Errorf("inner ring=0 under parent ring 2: got %d, want clamped to 2", got.Ring)
	}
	// A properly nested less-privileged child is untouched.
	got = ParseACAttrs(lookup(map[string]string{"ring": "3"}), 3, 2)
	if got.Ring != 3 {
		t.Errorf("inner ring=3 under parent ring 2: got %d, want 3", got.Ring)
	}
}

func TestParseACAttrsFailSafeDefaults(t *testing.T) {
	// §4.3: missing ring ⇒ not an AC tag; present ring with missing
	// ACL attributes ⇒ r=0 w=0 x=0.
	got := ParseACAttrs(lookup(map[string]string{"class": "x"}), 3, 1)
	if got.HasRing {
		t.Error("div without ring attribute must not be an AC tag")
	}
	got = ParseACAttrs(lookup(map[string]string{"ring": "2"}), 3, 0)
	if got.ACL != (ACL{}) {
		t.Errorf("missing ACL attrs = %v, want zero (ring-0-only)", got.ACL)
	}
	// Malformed ring degrades to the least privileged ring, never to
	// a privileged one; a number a 16-bit ring would wrap is malformed.
	for _, ring := range []string{"bogus", "65536", "-65536"} {
		got = ParseACAttrs(lookup(map[string]string{"ring": ring}), 3, 1)
		if got.Ring != 3 {
			t.Errorf("malformed ring %q = %d, want fail-safe 3", ring, got.Ring)
		}
	}
	// Malformed ACL entry degrades to ring 0 (deny to all but kernel).
	got = ParseACAttrs(lookup(map[string]string{"ring": "2", "w": "nope"}), 3, 0)
	if got.ACL.Write != 0 {
		t.Errorf("malformed w = %d, want fail-safe 0", got.ACL.Write)
	}
}

func TestParseACAttrsNonce(t *testing.T) {
	got := ParseACAttrs(lookup(map[string]string{"ring": "2", "nonce": "3847"}), 3, 0)
	if got.Nonce != "3847" {
		t.Errorf("Nonce = %q, want 3847", got.Nonce)
	}
}

func TestFormatACAttrsRoundTrip(t *testing.T) {
	f := func(ring, r, w, x uint8, withNonce bool) bool {
		maxRing := Ring(7)
		in := ACAttrs{
			HasRing: true,
			Ring:    Ring(ring % 8),
			ACL:     ACL{Read: Ring(r % 8), Write: Ring(w % 8), Use: Ring(x % 8)},
		}
		var nonce uint64
		if withNonce {
			nonce = 12345
		}
		s := string(AppendACAttrs(nil, in.Ring, in.ACL, nonce))
		attrs := map[string]string{}
		for _, kv := range strings.Fields(s) {
			k, v, _ := strings.Cut(kv, "=")
			attrs[k] = v
		}
		out := ParseACAttrs(lookup(attrs), maxRing, 0)
		want := ""
		if withNonce {
			want = "12345"
		}
		return out.HasRing && out.Ring == in.Ring && out.ACL == in.ACL && out.Nonce == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsConfigAttr(t *testing.T) {
	for _, a := range []string{"ring", "r", "w", "x", "nonce", "RING", "Nonce"} {
		if !IsConfigAttr(a) {
			t.Errorf("IsConfigAttr(%q) = false, want true", a)
		}
	}
	for _, a := range []string{"class", "id", "href", "src", "onclick", ""} {
		if IsConfigAttr(a) {
			t.Errorf("IsConfigAttr(%q) = true, want false", a)
		}
	}
}

func TestParseCookieHeader(t *testing.T) {
	cc, err := ParseCookieHeader("phpbb2mysql_sid; ring=1; r=1; w=1; x=1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Name != "phpbb2mysql_sid" || cc.Ring != 1 || cc.ACL != UniformACL(1) {
		t.Errorf("cc = %+v", cc)
	}
	// ACL defaults to the cookie's ring when omitted.
	cc, err = ParseCookieHeader("sid; ring=2", 3)
	if err != nil {
		t.Fatal(err)
	}
	if cc.ACL != UniformACL(2) {
		t.Errorf("default ACL = %v, want uniform 2", cc.ACL)
	}
	// No ring at all: ring 0.
	cc, err = ParseCookieHeader("plain", 3)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Ring != 0 {
		t.Errorf("ring = %d, want 0", cc.Ring)
	}
}

func TestParseCookieHeaderErrors(t *testing.T) {
	bad := []string{
		"",
		"; ring=1",
		"sid; ring=9",   // exceeds maxRing 3
		"sid; ring=abc", // not a number
		"sid; r",        // parameter without =
		"sid; w=7",      // ACL out of range
	}
	for _, v := range bad {
		if cc, err := ParseCookieHeader(v, 3); err == nil {
			t.Errorf("ParseCookieHeader(%q) = %+v, want error", v, cc)
		}
	}
}

// A value with several bad ACL entries reports the first of r, w, x on
// every call, so identical page loads report identical ConfigErrors.
func TestParseCookieHeaderErrorIsStable(t *testing.T) {
	for i := 0; i < 60; i++ {
		_, err := ParseCookieHeader("sid; ring=1; r=x; w=y; x=z", 3)
		if err == nil || !strings.Contains(err.Error(), `attr "r"`) {
			t.Fatalf("call %d: err = %v, want the r entry's", i, err)
		}
	}
}

// phpBB's three headers parse in place.
// maxPageConfigAllocs is the measured count: the Cookies and APIs maps
// and one entry group each. Splitting the values and a parameter map
// per header took it to 15.
const maxPageConfigAllocs = 4

func TestParsePageConfigAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	maxRing := []string{"3"}
	cookies := []string{"phpbb2mysql_data; ring=1; r=1; w=1; x=1", "phpbb2mysql_sid; ring=1; r=1; w=1; x=1"}
	apis := []string{"xmlhttprequest; ring=1"}
	n := testing.AllocsPerRun(20, func() {
		if _, errs := ParsePageConfig(maxRing, cookies, apis); len(errs) != 0 {
			t.Fatal(errs)
		}
	})
	if n > maxPageConfigAllocs {
		t.Errorf("ParsePageConfig of phpBB's headers allocates %.0f times, want <= %d", n, maxPageConfigAllocs)
	}
}

func TestParseAPIHeader(t *testing.T) {
	ac, err := ParseAPIHeader("XMLHttpRequest; ring=1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if ac.Name != "xmlhttprequest" || ac.Ring != 1 {
		t.Errorf("ac = %+v", ac)
	}
	if _, err := ParseAPIHeader("xhr; ring=12", 3); err == nil {
		t.Error("out-of-range API ring must fail")
	}
}

func TestParsePageConfig(t *testing.T) {
	cfg, errs := ParsePageConfig(
		[]string{"3"},
		[]string{"sid; ring=1; r=1; w=1; x=1", "data; ring=1"},
		[]string{"xmlhttprequest; ring=1"},
	)
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	if cfg.MaxRing != 3 {
		t.Errorf("MaxRing = %d, want 3", cfg.MaxRing)
	}
	if r, acl := cfg.CookieRing("sid"); r != 1 || acl != UniformACL(1) {
		t.Errorf("sid = ring %d acl %v", r, acl)
	}
	if r, _ := cfg.CookieRing("unknown"); r != 0 {
		t.Errorf("unconfigured cookie ring = %d, want 0 (§4.1 default)", r)
	}
	if r := cfg.APIRing("XMLHttpRequest"); r != 1 {
		t.Errorf("APIRing(XMLHttpRequest) = %d, want 1", r)
	}
	if r := cfg.APIRing("dom"); r != 0 {
		t.Errorf("unconfigured API ring = %d, want fail-safe 0", r)
	}
	if !cfg.Configured() {
		t.Error("cfg must report configured")
	}
}

func TestParsePageConfigDefaults(t *testing.T) {
	cfg, errs := ParsePageConfig(nil, nil, nil)
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	if cfg.Configured() {
		t.Error("empty config must report unconfigured (legacy page)")
	}
	if cfg.MaxRing != 0 {
		t.Errorf("legacy MaxRing = %d, want 0", cfg.MaxRing)
	}
	// Cookie headers without a MaxRing imply the default N=3.
	cfg, _ = ParsePageConfig(nil, []string{"sid; ring=1"}, nil)
	if cfg.MaxRing != DefaultMaxRing {
		t.Errorf("implied MaxRing = %d, want %d", cfg.MaxRing, DefaultMaxRing)
	}
}

func TestParsePageConfigBadValuesDegrade(t *testing.T) {
	cfg, errs := ParsePageConfig([]string{"bogus"}, []string{"sid; ring=nope"}, []string{"; ring=1"})
	if len(errs) != 3 {
		t.Fatalf("errs = %v, want 3", errs)
	}
	if len(cfg.Cookies) != 0 || len(cfg.APIs) != 0 {
		t.Error("malformed entries must not be installed")
	}
}

func TestPageConfigHeaderRoundTrip(t *testing.T) {
	cfg := NewPageConfig(3)
	cfg.Cookies["sid"] = CookieConfig{Name: "sid", Ring: 1, ACL: UniformACL(1)}
	cfg.Cookies["data"] = CookieConfig{Name: "data", Ring: 2, ACL: ACL{Read: 2, Write: 1, Use: 2}}
	cfg.APIs["xmlhttprequest"] = APIConfig{Name: "xmlhttprequest", Ring: 1}

	maxRing, cookies, apis := cfg.HeaderValues()
	back, errs := ParsePageConfig([]string{maxRing}, cookies, apis)
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	if back.MaxRing != cfg.MaxRing {
		t.Errorf("MaxRing = %d, want %d", back.MaxRing, cfg.MaxRing)
	}
	for name, want := range cfg.Cookies {
		if got := back.Cookies[name]; got != want {
			t.Errorf("cookie %q = %+v, want %+v", name, got, want)
		}
	}
	for name, want := range cfg.APIs {
		if got := back.APIs[name]; got != want {
			t.Errorf("api %q = %+v, want %+v", name, got, want)
		}
	}
}

// A context's ring and ACL are four 16-bit rings sharing one word,
// which keeps every principal and object context of a page load, and
// each of the two a Decision carries, at 80 bytes.
func TestContextSize(t *testing.T) {
	if got := unsafe.Sizeof(Context{}); got > 80 {
		t.Errorf("Context is %d bytes, want <= 80", got)
	}
}

func TestContextString(t *testing.T) {
	c := Object(siteA, 2, ACL{Read: 1}, "post")
	s := c.String()
	for _, want := range []string{"post", "ring=2", "r=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("Context.String() = %q missing %q", s, want)
		}
	}
	var empty Context
	if !strings.Contains(empty.String(), "?") {
		t.Errorf("empty context should render placeholder label: %q", empty.String())
	}
}
