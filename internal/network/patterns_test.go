package network

import (
	"math/rand"
	"testing"
)

func patternNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// solvePairs routes NIC 0 of each (src, dst) node pair adaptively, solves
// the set and returns the mean allocated rate.
func solvePairs(t *testing.T, pairs [][2]int, valiant int, rng *rand.Rand) float64 {
	t.Helper()
	f := smallFabric(t)
	demands := make([]*Demand, 0, len(pairs))
	for _, p := range pairs {
		d, err := buildDemand(f, p[0], p[1], 0, valiant, rng)
		if err != nil {
			t.Fatal(err)
		}
		demands = append(demands, d)
	}
	if err := Solve(f, demands); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, d := range demands {
		sum += d.Rate
	}
	return sum / float64(len(demands))
}

func TestShiftPattern(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(1))
	demands, err := Shift(8, 4, 4)(f, patternNodes(48), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(demands) != 48*4 {
		t.Errorf("demands = %d, want 192", len(demands))
	}
	if err := Solve(f, demands); err != nil {
		t.Fatal(err)
	}
	for i, d := range demands {
		if d.Rate <= 0 || d.Rate > 17.5e9*1.01 {
			t.Errorf("demand %d rate %.3g outside (0, NIC]", i, d.Rate)
		}
	}
	// A shift of 0-mod-len is degenerate.
	if _, err := Shift(0, 4, 4)(f, patternNodes(1), rng); err == nil {
		t.Error("single node shift should error")
	}
}

func TestIncastConcentrates(t *testing.T) {
	var pairs [][2]int
	for n := 1; n <= 16; n++ {
		pairs = append(pairs, [2]int{n, 0})
	}
	mean := solvePairs(t, pairs, 2, rand.New(rand.NewSource(2)))
	// 16 senders share the target's ejection link (17.5 GB/s): each
	// gets ~1.1 GB/s — the fair share congestion control enforces.
	want := 25e9 * 0.7 / 16
	if mean < want*0.8 || mean > want*1.2 {
		t.Errorf("incast mean = %.3g, want ~%.3g (ejection fair share)", mean, want)
	}
}

func TestBroadcastSpreads(t *testing.T) {
	var pairs [][2]int
	for n := 1; n <= 16; n++ {
		pairs = append(pairs, [2]int{0, n})
	}
	mean := solvePairs(t, pairs, 2, rand.New(rand.NewSource(3)))
	// The root's single injection NIC (17.5 GB/s) splits 16 ways.
	want := 25e9 * 0.7 / 16
	if mean < want*0.8 || mean > want*1.2 {
		t.Errorf("broadcast mean = %.3g, want ~%.3g (injection fair share)", mean, want)
	}
}

func TestRandomPermutationPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var pairs [][2]int
	for i, pi := range rng.Perm(48) {
		if i != pi {
			pairs = append(pairs, [2]int{i, pi})
		}
	}
	// Permutation traffic on a lightly loaded fabric beats incast's
	// fair share by an order of magnitude.
	if mean := solvePairs(t, pairs, 4, rng); mean < 5e9 {
		t.Errorf("permutation mean = %.3g, want multi-GB/s", mean)
	}
}
