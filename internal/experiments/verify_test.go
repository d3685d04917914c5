package experiments

import (
	"strings"
	"testing"

	"frontiersim/internal/report"
)

func TestVerifyAllPass(t *testing.T) {
	if testing.Short() {
		t.Skip("verify sweep in -short mode")
	}
	results := Verify(quickOpts())
	if len(results) != len(Registry()) {
		t.Fatalf("results = %d, want %d", len(results), len(Registry()))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: %v", r.ID, r.Err)
		}
		if !r.Pass {
			t.Errorf("%s: FAIL (worst %.1f%%, envelope %.0f%%)", r.ID, r.WorstDeviation*100, r.Envelope*100)
		}
		if r.String() == "" {
			t.Errorf("%s: empty formatting", r.ID)
		}
	}
	if !AllPass(results) {
		t.Error("AllPass should be true")
	}
}

func TestVerifyResultFormatting(t *testing.T) {
	pass := VerifyResult{ID: "x", WorstDeviation: 0.05, Envelope: 0.1, Pass: true}
	if !strings.Contains(pass.String(), "PASS") {
		t.Error("pass row should say PASS")
	}
	fail := VerifyResult{ID: "y", WorstDeviation: 0.5, Envelope: 0.1}
	if !strings.Contains(fail.String(), "FAIL") {
		t.Error("fail row should say FAIL")
	}
	noEnv := VerifyResult{ID: "z", Pass: true}
	if !strings.Contains(noEnv.String(), "no numeric") {
		t.Error("envelope-free row should say so")
	}
	held := VerifyResult{ID: "b", Bounds: 1, Pass: true}
	if s := held.String(); !strings.Contains(s, "1 bound(s) hold") || strings.Contains(s, "no numeric") {
		t.Errorf("bound-only row should report its bound: %q", s)
	}
	broken := VerifyResult{ID: "c", WorstDeviation: 0.01, Envelope: 0.1, Bounds: 2, BrokenBounds: []string{"MW per EF"}}
	if s := broken.String(); !strings.Contains(s, "FAIL") || !strings.Contains(s, "bounds broken: MW per EF") {
		t.Errorf("broken bound should be named: %q", s)
	}
	if AllPass([]VerifyResult{pass, fail}) {
		t.Error("AllPass with a failure should be false")
	}
}

func TestEnvelopesCoverPaperArtifacts(t *testing.T) {
	envs := Envelopes()
	// Every paper table/figure must have an envelope (the ablations and
	// extensions may be informational).
	for _, id := range []string{"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"fig3", "fig4", "fig5", "fig6", "sec431", "sec432", "sec51", "sec54"} {
		if envs[id] <= 0 {
			t.Errorf("paper artifact %s has no reproduction envelope", id)
		}
	}
	for id := range envs {
		if _, err := ByID(id); err != nil {
			t.Errorf("envelope for unknown experiment %s", id)
		}
	}
}

// A bound row is checked as a bound: a broken one fails the experiment
// with or without an envelope, and a held one neither fails it nor
// counts toward its worst deviation.
func TestVerifyChecksBoundRows(t *testing.T) {
	table := func(delivered float64) *report.Table {
		tab := &report.Table{}
		tab.Add("point", "10", "", 10, 10.4, "")
		tab.Add("delivered vs requested walltime", "<= 1.0 (margin 1.25x)", "", 1, delivered, "")
		return tab
	}
	for _, env := range []float64{0, 0.05} {
		held := VerifyResult{ID: "held", Envelope: env}
		held.judge(table(0.44))
		if !held.Pass || held.Bounds != 1 || len(held.BrokenBounds) != 0 {
			t.Errorf("envelope %v: held bound judged %+v", env, held)
		}
		if env > 0 && held.WorstDeviation > 0.041 {
			t.Errorf("bound row counted toward the worst deviation: %v", held.WorstDeviation)
		}
		broken := VerifyResult{ID: "broken", Envelope: env}
		broken.judge(table(1.3))
		if broken.Pass || len(broken.BrokenBounds) != 1 {
			t.Errorf("envelope %v: broken bound judged %+v", env, broken)
		}
	}
}
