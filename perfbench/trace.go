package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a module's public
// function. Times are seconds since the tracer started.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int     `json:"op"`     // operation id shared by the spans of one round or request
}

// tracer keeps spans in memory until the run ends. A nil *tracer, or one
// that is off, records nothing, so untraced runs pay only a nil check.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, or -1 when tracing is off.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil || !t.on {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id; -1 is ignored.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// duration returns span id's length in seconds.
func (t *tracer) duration(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id]
	return s.End - s.Start
}

// selfTimes attributes the time of root's subtree to span names: a span's
// self time is its duration minus the part of it its children cover.
// The self times of a subtree add up to the root's duration.
func (t *tracer) selfTimes(root int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]float64{}
	var walk func(i int)
	walk = func(i int) {
		s := t.spans[i]
		out[s.Name] += s.End - s.Start - covered(t.spans, children[i], s.Start, s.End)
		for _, c := range children[i] {
			walk(c)
		}
	}
	walk(root)
	return out
}

// covered is the length of the union of the given spans clipped to
// [lo, hi]; children of one span may overlap when they run concurrently.
func covered(spans []span, ids []int, lo, hi float64) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := spans[id].Start, spans[id].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB float64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write stores every span as JSON in dir and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": t.spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}
