package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"frontiersim/internal/machine"
)

// small is a structurally faithful 256-node dragonfly.
func small() machine.Spec { return machine.Scaled(8, 8, 16) }

// smallWorkloads run each workload at reduced size: a scaled machine, a
// two-week campaign window and a few seconds of requests.
var smallWorkloads = map[string]func(options) (*result, error){
	yc: func(o options) (*result, error) {
		return runYear(o, yearConfig{spec: small(), days: 14, stride: 1, replayPairs: 100, repeats: 2, minRounds: 2})
	},
	fc: func(o options) (*result, error) {
		return runCensus(o, censusConfig{frontier: small(), summit: machine.Summit(),
			replayShifts: 8, replayHits: 3, minRounds: 2,
			// AblationCC runs 9,400 nodes whatever the machine, so it
			// cannot run on the small one.
			reproduce: []string{"fig6", "table5", "ablation-routing", "ablation-ppn"}})
	},
	ws: func(o options) (*result, error) {
		return runServe(o, serveConfig{spec: small(),
			experiments: []string{"fig6", "table5", "ext-year", "ext-llm", "ablation-routing", "ext-operations"},
			writeEvery:  4, keyWindow: 6, zipfS: 1.3, cacheBytes: 4 << 10, solutionBytes: 16 << 20,
			setups: 2, setupBatches: 2, roundRequests: 8, captureKeys: 2, tracedCaptureKeys: 3})
	},
}

// exercises reports whether workload w is expected to measure metric d.
func exercises(d metricDef, w string) bool {
	return !d.Layer || d.Name == "trace.overhead_s" || strings.HasPrefix(d.Name, "bench.") || strings.Contains(d.Moves, w)
}

func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 3, window: time.Second, trace: traced, outdir: t.TempDir()}
			res, err := smallWorkloads[w](o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, traced, err)
			}
			for _, c := range res.checks {
				if !c.ok {
					t.Errorf("%s trace=%t: check %s failed: %s", w, traced, c.name, c.detail)
				}
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s trace=%t: %d of %d operations failed", w, traced, res.failed, res.attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := res.values[d.Name]; !ok && exercises(d, w) {
					t.Errorf("%s trace=%t: metric %s not measured", w, traced, d.Name)
				}
			}
			line, err := emit(res, traced)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w, err)
			}
			if !out.Correct || len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: correct=%t with %d of %d metrics", w, traced, out.Correct, len(out.Metrics), len(defs))
			}
			if traced {
				if _, err := os.Stat(o.outdir); err != nil {
					t.Errorf("%s: no trace written: %v", w, err)
				}
			}
		}
	}
}

// TestSameSeedSameCounts pins the exact counts: two runs on one seed
// must repeat them bit for bit.
func TestSameSeedSameCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two campaigns and two censuses")
	}
	for _, w := range []string{yc, fc} {
		var prev []count
		for i := 0; i < 2; i++ {
			res, err := smallWorkloads[w](options{workload: w, seed: 5, window: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.counts) == 0 {
				t.Fatalf("%s: no exact counts", w)
			}
			if prev != nil && !equalCounts(prev, res.counts) {
				t.Errorf("%s: counts differ between runs: %v vs %v", w, prev, res.counts)
			}
			prev = res.counts
		}
	}
}

func equalCounts(a, b []count) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, program runs %v", names, workloadNames())
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}
