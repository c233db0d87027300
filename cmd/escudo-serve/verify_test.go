package main

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/slo"
)

// cleanReport is a report in which every section the driver can write
// is present and every invariant verify checks holds.
func cleanReport() *benchJSON {
	all := func() *attacksJSON { return &attacksJSON{Total: 18, Neutralized: 18} }
	match := true
	return &benchJSON{
		Mode:   "escudo",
		Phases: []phaseJSON{{Name: "figure4", Tasks: 40}, {Name: "attacks", Tasks: 18, Attacks: all()}},
		Policy: &policyJSON{Origins: []string{"a", "b", "c", "d"}, RoundTripOK: true,
			Phases: []phaseJSON{{Name: "delegated-session", Tasks: 8}}},
		HTTP: &httpJSON{TLS: true, Proto: "h2", PolicyzOrigins: 4, Attacks: all(), AttacksMatchMemory: &match,
			Phases: []phaseJSON{{Name: "http-figure4", Tasks: 40, GatewayJSON: &GatewayJSON{Requests: 40}}}},
		Control: &controlJSON{PolicyzOrigins: 4, Generation: 5, GenerationsSeen: 2, PagesAudited: 80,
			Storm:  &stormJSON{FlipGeneration: 5, AttacksPreFlip: all(), AttacksPostFlip: all()},
			Phases: []phaseJSON{{Name: "control-storm", Tasks: 80, GatewayJSON: &GatewayJSON{Requests: 80}}}},
		SLO: &slo.Result{Completed: 10, Logins: 3, Logouts: 2, LiveSessions: 1,
			P99BudgetMs: 250, P99WithinBudget: true, Leak: &obs.DriftReport{Points: 10}},
	}
}

// TestVerify breaks each invariant verify owns, one report at a time:
// every broken report must fail, and must fail for that reason.
func TestVerify(t *testing.T) {
	if err := verify(cleanReport()); err != nil {
		t.Fatalf("clean report: %v", err)
	}
	for _, tc := range []struct {
		name   string
		want   string // substring of the error
		mutate func(r *benchJSON)
	}{
		{"in-memory task error", "phase figure4 had 2 task errors", func(r *benchJSON) { r.Phases[0].Errors = 2 }},
		{"policy task error", "policy phase delegated-session", func(r *benchJSON) { r.Policy.Phases[0].Errors = 1 }},
		{"http task error", "http phase http-figure4", func(r *benchJSON) { r.HTTP.Phases[0].Errors = 1 }},
		{"control task error", "control phase control-storm", func(r *benchJSON) { r.Control.Phases[0].Errors = 1 }},
		{"storm pages miss their origin", "control phase control-storm: the gateway served 0 origin requests for 80 tasks",
			func(r *benchJSON) { r.Control.Phases[0].Requests = 0 }},
		{"in-memory attack lands", "in memory: 17/18", func(r *benchJSON) { r.Phases[1].Attacks.Neutralized = 17 }},
		{"short corpus", "in memory: 17/17", func(r *benchJSON) { r.Phases[1].Attacks = &attacksJSON{Total: 17, Neutralized: 17} }},
		{"socket attack lands", "over sockets: 17/18", func(r *benchJSON) { r.HTTP.Attacks.Neutralized = 17 }},
		{"pre-flip attack lands", "before the flip", func(r *benchJSON) { r.Control.Storm.AttacksPreFlip.Neutralized = 17 }},
		{"post-flip attack lands", "after the flip", func(r *benchJSON) { r.Control.Storm.AttacksPostFlip.Neutralized = 17 }},
		{"socket verdict diverges", "diverge between in-memory and socket", func(r *benchJSON) { *r.HTTP.AttacksMatchMemory = false }},
		{"round trip fails", "round trip", func(r *benchJSON) { r.Policy.RoundTripOK = false }},
		{"policyz changed", "/policyz served back 3 of 4", func(r *benchJSON) { r.HTTP.PolicyzOrigins = 3 }},
		{"http TLS without h2", `http: the TLS loadgen negotiated "h1"`, func(r *benchJSON) { r.HTTP.Proto = "h1" }},
		{"mixed generations", "1 pages observed more than one", func(r *benchJSON) { r.Control.GenerationsMixed = 1 }},
		{"one generation seen", "saw 1 generation", func(r *benchJSON) { r.Control.GenerationsSeen = 1 }},
		{"control policyz count", "/policyz served 3 documents, mounted 4", func(r *benchJSON) { r.Control.PolicyzOrigins = 3 }},
		{"flip generation", "fleet generation 7", func(r *benchJSON) { r.Control.Generation = 7 }},
		{"slo task errors", "open-loop run had 2 task errors", func(r *benchJSON) { r.SLO.Errors = 2 }},
		{"slo leak", "suspects a leak", func(r *benchJSON) { r.SLO.Leak.Suspected = true }},
		{"slo budget", "misses its 250.0 ms budget", func(r *benchJSON) { r.SLO.P99WithinBudget = false }},
		{"slo churn", "churn: 3 logins != 1 logouts", func(r *benchJSON) { r.SLO.Logouts = 1 }},
	} {
		r := cleanReport()
		tc.mutate(r)
		err := verify(r)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: verify = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	// Under SOP the attacks landing is the baseline working, not a
	// broken invariant.
	sop := cleanReport()
	sop.Mode = "sop"
	for _, a := range []*attacksJSON{sop.Phases[1].Attacks, sop.HTTP.Attacks,
		sop.Control.Storm.AttacksPreFlip, sop.Control.Storm.AttacksPostFlip} {
		a.Neutralized, a.Succeeded = 0, 18
	}
	if err := verify(sop); err != nil {
		t.Fatalf("SOP report whose attacks succeed: %v", err)
	}
}
