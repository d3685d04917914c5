package rng

import (
	"math/rand"
	"testing"
)

// TestGoldenSourceStream pins the raw xoshiro256++ output for seed 42.
// These constants are the determinism contract: any change to seeding or
// state transition silently reshuffles every simulated measurement, so a
// refactor that trips this test must be treated as a results-changing
// event (regenerate EXPERIMENTS.md, re-check envelopes), never waved
// through.
func TestGoldenSourceStream(t *testing.T) {
	want := [8]uint64{
		0xefdb3abe2d004720, 0x74285db8cad01896, 0xe6026692c15933c2, 0x3aa35cc5ec89ce4c,
		0xabc99e3ed95f4ad3, 0x7d195f2a1f6f6e53, 0xd7d15320294bf92b, 0x5d1c1980e4d3bf09,
	}
	s := NewSource(42)
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("Uint64 #%d = %#x, want %#x", i, got, w)
		}
	}
}

// TestGoldenRandStream pins the stream as consumed through *rand.Rand,
// proving rand.New routes through Source64.Uint64 (no Int63 truncation
// surprises between Go versions of the shim).
func TestGoldenRandStream(t *testing.T) {
	want := [8]int64{
		8641736291718800272, 4185021477863033931, 8286961179585976801, 2112661440275212070,
		6189299521788290409, 4507170381839709993, 7775651192941968533, 3354632793130393476,
	}
	r := New(42)
	for i, w := range want {
		if got := r.Int63(); got != w {
			t.Fatalf("Int63 #%d = %d, want %d", i, got, w)
		}
	}
}

// TestGoldenDerive pins the named derivation function — the edges of the
// stream-derivation tree.
func TestGoldenDerive(t *testing.T) {
	cases := []struct {
		got, want int64
		name      string
	}{
		{Derive(42, "nic"), 5862105248083716468, `Derive(42,"nic")`},
		{Derive(42, "gpu"), -405461824577566726, `Derive(42,"gpu")`},
		{Derive(7, "nic"), 2988962952674555841, `Derive(7,"nic")`},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestMix64Reference(t *testing.T) {
	// Reference values of the SplitMix64 finalizer.
	if got := Mix64(0); got != 0xe220a8397b1dcdaf {
		t.Errorf("Mix64(0) = %#x", got)
	}
	if got := Mix64(1); got != 0x910a2dec89025cc1 {
		t.Errorf("Mix64(1) = %#x", got)
	}
}

func TestSeedResetsStream(t *testing.T) {
	s := NewSource(1)
	first := s.Uint64()
	for i := 0; i < 100; i++ {
		s.Uint64()
	}
	s.Seed(1)
	if got := s.Uint64(); got != first {
		t.Errorf("Seed did not reset the stream: %#x vs %#x", got, first)
	}
}

// Distinct seeds, including adjacent ones, must give visibly different
// streams — the whole point of the SplitMix64 expansion.
func TestAdjacentSeedsDecorrelated(t *testing.T) {
	a, b := NewSource(1), NewSource(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Errorf("seeds 1 and 2 collided on %d of 64 draws", same)
	}
}

// Derivation must be a pure function: independent of evaluation order
// and free of shared state.
func TestDeriveOrderIndependence(t *testing.T) {
	a1 := Derive(9, "a")
	_ = Derive(9, "b")
	a2 := Derive(9, "a")
	if a1 != a2 {
		t.Fatal("Derive depends on call order")
	}
	if Derive(9, "a") == Derive(9, "b") {
		t.Error("distinct names collided")
	}
}

// The rand.Rand distribution helpers the simulator leans on must behave
// sanely over the source (sanity, not statistics: means within loose
// bounds over 100k draws).
func TestDistributionSanity(t *testing.T) {
	r := New(3)
	var sumF, sumN float64
	const n = 100000
	for i := 0; i < n; i++ {
		sumF += r.Float64()
		sumN += r.NormFloat64()
	}
	if mean := sumF / n; mean < 0.49 || mean > 0.51 {
		t.Errorf("Float64 mean = %.4f, want ~0.5", mean)
	}
	if mean := sumN / n; mean < -0.02 || mean > 0.02 {
		t.Errorf("NormFloat64 mean = %.4f, want ~0", mean)
	}
	// Intn must stay in range and hit every residue eventually.
	seen := [8]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(8)
		if v < 0 || v >= 8 {
			t.Fatalf("Intn(8) = %d out of range", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("Intn(8) never produced %d in 1000 draws", v)
		}
	}
}

var _ rand.Source64 = (*Source)(nil)
