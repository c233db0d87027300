package attack

import (
	"testing"

	"repro/internal/browser"
)

// TestCorpusShape pins the §6.4 corpus: 4 XSS + 5 CSRF per app.
func TestCorpusShape(t *testing.T) {
	corpus := Corpus()
	counts := map[string]map[Kind]int{}
	names := map[string]bool{}
	for _, a := range corpus {
		if names[a.Name] {
			t.Errorf("duplicate attack name %q", a.Name)
		}
		names[a.Name] = true
		if counts[a.App] == nil {
			counts[a.App] = map[Kind]int{}
		}
		counts[a.App][a.Kind]++
		if a.Description == "" || a.Run == nil {
			t.Errorf("attack %q incomplete", a.Name)
		}
	}
	for _, app := range []string{"phpBB", "PHP-Calendar"} {
		if got := counts[app][KindXSS]; got != 4 {
			t.Errorf("%s XSS attacks = %d, want 4 (§6.4)", app, got)
		}
		if got := counts[app][KindCSRF]; got != 5 {
			t.Errorf("%s CSRF attacks = %d, want 5 (§6.4)", app, got)
		}
	}
	if len(corpus) != 18 {
		t.Errorf("corpus = %d attacks, want 18", len(corpus))
	}
}

// TestAllAttacksSucceedUnderSOP validates the attacks themselves: in a
// legacy browser with the unhardened apps, every attack must achieve
// its goal — otherwise it is not a real attack and the ESCUDO verdict
// would be vacuous.
func TestAllAttacksSucceedUnderSOP(t *testing.T) {
	for _, r := range RunAll(browser.ModeSOP) {
		if r.Err != nil {
			t.Errorf("%s: harness error: %v", r.Attack.Name, r.Err)
			continue
		}
		if !r.Succeeded {
			t.Errorf("%s: did not succeed under SOP — not a demonstrated attack", r.Attack.Name)
		}
	}
}

// TestAllAttacksNeutralizedUnderEscudo is the paper's headline §6.4
// result: "All the attacks were neutralized in the presence of
// ESCUDO."
func TestAllAttacksNeutralizedUnderEscudo(t *testing.T) {
	for _, r := range RunAll(browser.ModeEscudo) {
		if r.Err != nil {
			t.Errorf("%s: harness error: %v", r.Attack.Name, r.Err)
			continue
		}
		if !r.Neutralized() {
			t.Errorf("%s: SUCCEEDED under ESCUDO — protection failed", r.Attack.Name)
		}
	}
}

// TestCSRFRequestsStillIssued checks the paper's observation that the
// malicious site "still issued the requests" under ESCUDO — the
// neutralization is the missing cookie, not a blocked request.
func TestCSRFRequestsStillIssued(t *testing.T) {
	for _, atk := range Corpus() {
		if atk.Kind != KindCSRF {
			continue
		}
		env, err := NewEnv(browser.ModeEscudo)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := atk.Run(env); err != nil {
			t.Errorf("%s: %v", atk.Name, err)
			continue
		}
		targets := 0
		for _, le := range env.Net.Log() {
			if le.Target == env.ForumOrigin || le.Target == env.CalOrigin {
				targets++
			}
		}
		if targets == 0 {
			t.Errorf("%s: no request reached the target — expected the request to be issued but cookieless", atk.Name)
		}
	}
}

// TestCSRFNeutralizedByMissingCookie verifies the mechanism: under
// ESCUDO the forged request arrives without the session cookie.
func TestCSRFNeutralizedByMissingCookie(t *testing.T) {
	for _, atk := range Corpus() {
		if atk.Kind != KindCSRF || atk.App != "phpBB" {
			continue
		}
		env, err := NewEnv(browser.ModeEscudo)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := atk.Run(env); err != nil {
			t.Errorf("%s: %v", atk.Name, err)
			continue
		}
		for _, le := range env.Net.Log() {
			if le.Target != env.ForumOrigin {
				continue
			}
			if le.HasCookie("phpbb2mysql_sid") {
				t.Errorf("%s: forged request carried the session cookie", atk.Name)
			}
		}
	}
}

// TestXSSCookieTheftMechanism verifies the ESCUDO mechanism for the
// theft attacks: the exfiltration request happens, but document.cookie
// was empty for the ring-3 script.
func TestXSSCookieTheftMechanism(t *testing.T) {
	var theft Attack
	for _, a := range Corpus() {
		if a.Name == "phpbb-xss-cookie-theft" {
			theft = a
		}
	}
	env, err := NewEnv(browser.ModeEscudo)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := theft.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("theft succeeded under ESCUDO")
	}
	// The collector did receive a request — with an empty cookie
	// string.
	got := env.EvilReceived("/steal")
	if len(got) != 1 {
		t.Fatalf("collector requests = %d, want 1 (exfil channel exists, secret does not leak)", len(got))
	}
	if c := got[0].Get("c"); c != "" {
		t.Errorf("exfiltrated cookie = %q, want empty", c)
	}
}

// TestHardenedAppsResistXSSUnderSOP verifies the §6.4 premise: the
// attacks needed the front-line defenses removed. With hardening back
// on, the XSS corpus fails even in a legacy browser (the payload is
// escaped to inert text), which is why the paper removed input
// validation to isolate the protection model's contribution.
func TestHardenedAppsResistXSSUnderSOP(t *testing.T) {
	for _, atk := range Corpus() {
		if atk.Kind != KindXSS {
			continue
		}
		env, err := NewEnv(browser.ModeSOP, Hardened())
		if err != nil {
			t.Fatal(err)
		}
		ok, err := atk.Run(env)
		if err != nil {
			t.Errorf("%s: %v", atk.Name, err)
			continue
		}
		if ok {
			t.Errorf("%s: succeeded against the hardened app — input validation should have stopped it", atk.Name)
		}
	}
}

// TestHardenedPhpBBResistsFormCSRF: phpBB's secret-token validation
// stops the POST-based CSRF vector even under SOP (the paper removed
// it for the evaluation). GET vectors against /quickpost and all of
// PHP-Calendar remain exploitable — PHP-Calendar "had no protection
// mechanisms for CSRF attacks".
func TestHardenedPhpBBResistsFormCSRF(t *testing.T) {
	for _, atk := range Corpus() {
		if atk.Name != "phpbb-csrf-form" {
			continue
		}
		env, err := NewEnv(browser.ModeSOP, Hardened())
		if err != nil {
			t.Fatal(err)
		}
		ok, err := atk.Run(env)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Error("hardened phpBB accepted a tokenless cross-site POST")
		}
	}
}

// TestResultNeutralized covers the Result helper.
func TestResultNeutralized(t *testing.T) {
	if (Result{Succeeded: true}).Neutralized() {
		t.Error("succeeded attack reported neutralized")
	}
	if !(Result{Succeeded: false}).Neutralized() {
		t.Error("failed attack reported not neutralized")
	}
}

func TestKindString(t *testing.T) {
	if KindXSS.String() != "XSS" || KindCSRF.String() != "CSRF" || Kind(0).String() != "?" {
		t.Error("kind names")
	}
}
