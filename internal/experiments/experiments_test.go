package experiments

import (
	"bytes"
	"testing"

	"frontiersim/internal/machine"
)

func quickOpts() Options { return Options{Quick: true, Seed: 42} }

// Every registered experiment must run and produce a table whose
// comparable rows sit within a reproduction envelope. The envelope is
// deliberately generous for the stochastic network experiments and tight
// for the deterministic hardware models.
func TestAllExperimentsRun(t *testing.T) {
	envelope := Envelopes()
	for _, r := range Registry() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			table, err := r.Run(quickOpts())
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s: empty table", r.ID)
			}
			if table.ID != r.ID {
				t.Errorf("table id %q != runner id %q", table.ID, r.ID)
			}
			if env, ok := envelope[r.ID]; ok {
				if dev := table.MaxAbsDeviation(); dev > env {
					t.Errorf("%s: worst deviation %.1f%% exceeds envelope %.0f%%",
						r.ID, dev*100, env*100)
				}
			}
			var buf bytes.Buffer
			table.Render(&buf)
			if buf.Len() == 0 {
				t.Error("empty render")
			}
		})
	}
}

// The GPCNeT experiments run the paper's 9,400-node benchmark; on a
// machine with fewer compute nodes they must clamp to what exists rather
// than fail.
func TestGPCNeTExperimentsOnSmallMachine(t *testing.T) {
	spec := machine.Scaled(6, 8, 4)
	o := quickOpts()
	o.Machine = &spec
	for _, id := range []string{"table5", "ablation-cc", "ablation-ppn"} {
		r, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(o); err != nil {
			t.Errorf("%s on %s: %v", id, spec.Name, err)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("table3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("table99"); err == nil {
		t.Error("unknown id should error")
	}
	if len(IDs()) != len(Registry()) {
		t.Error("IDs() length mismatch")
	}
}

// The headline qualitative claims must hold regardless of exact numbers.
func TestHeadlineClaims(t *testing.T) {
	// Frontier exceeds an exaflop under 20 MW/EF (sec51).
	tab, err := Sec51(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var rmax, gfw float64
	for _, r := range tab.Rows {
		switch r.Name {
		case "HPL Rmax":
			rmax = r.MeasuredVal
		case "efficiency":
			gfw = r.MeasuredVal
		}
	}
	if rmax < 1.0 {
		t.Errorf("Rmax %.2f EF: Frontier must be exascale", rmax)
	}
	if gfw < 50 {
		t.Errorf("efficiency %.1f GF/W: must beat the 2008 report's 50", gfw)
	}

	// Every application beats its KPP (tables 6 and 7).
	for _, fn := range []Runner{{ID: "table6", Run: Table6}, {ID: "table7", Run: Table7}} {
		tab, err := fn.Run(quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tab.Rows {
			if r.MeasuredVal <= 1 {
				t.Errorf("%s/%s: speedup %.2f must exceed 1", fn.ID, r.Name, r.MeasuredVal)
			}
		}
	}
}
