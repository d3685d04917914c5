package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRowDeviation(t *testing.T) {
	r := Row{PaperVal: 100, MeasuredVal: 105}
	if math.Abs(r.Deviation()-0.05) > 1e-12 {
		t.Errorf("deviation = %v, want 0.05", r.Deviation())
	}
	if !math.IsNaN((Row{PaperVal: 0, MeasuredVal: 5}).Deviation()) {
		t.Error("zero paper value should give NaN")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "t", Title: "demo"}
	tab.Add("alpha", "100", "105", 100, 105, "note-a")
	tab.AddInfo("beta", "hello", "info row")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "alpha", "+5.0%", "beta", "hello", "note-a"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{ID: "m", Title: "md"}
	tab.Add("x", "1", "2", 1, 2, "")
	var buf bytes.Buffer
	tab.Markdown(&buf)
	out := buf.String()
	if !strings.Contains(out, "| x | 1 | 2 | +100.0% |") {
		t.Errorf("markdown wrong:\n%s", out)
	}
	if !strings.HasPrefix(out, "### m — md") {
		t.Errorf("missing heading:\n%s", out)
	}
}

func TestMaxAbsDeviation(t *testing.T) {
	tab := &Table{}
	tab.Add("a", "", "", 100, 90, "")
	tab.Add("b", "", "", 100, 104, "")
	tab.AddInfo("c", "no comparison", "")
	if d := tab.MaxAbsDeviation(); math.Abs(d-0.10) > 1e-12 {
		t.Errorf("max deviation = %v, want 0.10", d)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		25e9:   "25.0 GB/s",
		4.3e12: "4.30 TB/s",
		67e12:  "67.0 TB/s",
	}
	for v, want := range cases {
		if got := GB(v); got != want {
			t.Errorf("GB(%v) = %q, want %q", v, got, want)
		}
	}
	if F(0) != "0" {
		t.Error("F(0)")
	}
	if F(419.9e15) != "4.2e+17" {
		t.Errorf("F(huge) = %q", F(419.9e15))
	}
	if F(52.3) != "52.3" {
		t.Errorf("F(52.3) = %q", F(52.3))
	}
}

// Bound rows follow the envelope check's rule: a "<" or ">" paper
// prefix with both values set is a bound, checked against PaperVal and
// left out of MaxAbsDeviation; anything else is a point row.
func TestBoundRows(t *testing.T) {
	cases := []struct {
		row          Row
		bound, holds bool
	}{
		{Row{Paper: "<= 1.0 (margin 1.25x)", PaperVal: 1, MeasuredVal: 0.44}, true, true},
		{Row{Paper: "<= 1.0", PaperVal: 1, MeasuredVal: 1}, true, true},
		{Row{Paper: "<= 1.0", PaperVal: 1, MeasuredVal: 1.2}, true, false},
		{Row{Paper: " <20 MW/EF", PaperVal: 20, MeasuredVal: 18.8}, true, true},
		{Row{Paper: ">1x", PaperVal: 1, MeasuredVal: 2.7}, true, true},
		{Row{Paper: ">= 4x", PaperVal: 4, MeasuredVal: 3}, true, false},
		{Row{Paper: ">1x", PaperVal: 0, MeasuredVal: 2.7}, false, false},
		{Row{Paper: "<= 1.0", PaperVal: 1, MeasuredVal: 0}, false, false},
		{Row{Paper: "~14 PF", PaperVal: 14, MeasuredVal: 13.6}, false, false},
		{Row{Paper: "1.1 EF", PaperVal: 1.1, MeasuredVal: 1.12}, false, false},
	}
	for _, c := range cases {
		if bound, holds := c.row.Bound(); bound != c.bound || holds != c.holds {
			t.Errorf("%q %v vs %v: Bound() = %v, %v; want %v, %v",
				c.row.Paper, c.row.MeasuredVal, c.row.PaperVal, bound, holds, c.bound, c.holds)
		}
	}

	tab := &Table{}
	tab.Add("point", "100", "", 100, 103, "")
	tab.Add("upper", "<= 1.0", "", 1, 0.44, "")
	tab.Add("lower", ">= 2", "", 2, 1.5, "")
	if d := tab.MaxAbsDeviation(); math.Abs(d-0.03) > 1e-12 {
		t.Errorf("max deviation = %v, want 0.03 from the point row alone", d)
	}
	if n, broken := tab.Bounds(); n != 2 || len(broken) != 1 || broken[0] != "lower" {
		t.Errorf("Bounds() = %d, %v; want 2, [lower]", n, broken)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), "-56.0%") {
		t.Errorf("render dropped the bound row's deviation column:\n%s", buf.String())
	}
}
