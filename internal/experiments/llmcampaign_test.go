package experiments

import (
	"strings"
	"testing"

	"frontiersim/internal/report"
)

// renderOne runs a single experiment and renders its table.
func renderOne(t *testing.T, run func(Options) (*report.Table, error), o Options) string {
	t.Helper()
	tb, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	tb.Render(&b)
	return b.String()
}

// ext-llm must actually report token throughput scaling, and ext-campaign
// the delivered-vs-requested and lost-work accounting the job layer adds.
func TestLLMCampaignTablesReport(t *testing.T) {
	llmTable := renderOne(t, ExtLLM, quickOpts())
	for _, want := range []string{"tokens/s", "scaling eff", "comm-bound", "collectives"} {
		if !strings.Contains(llmTable, want) {
			t.Errorf("ext-llm table missing %q:\n%s", want, llmTable)
		}
	}
	campTable := renderOne(t, ExtCampaign, quickOpts())
	for _, want := range []string{"delivered vs requested", "slowdown", "lost work", "phase-structured"} {
		if !strings.Contains(campTable, want) {
			t.Errorf("ext-campaign table missing %q:\n%s", want, campTable)
		}
	}
}
