package mpi

import (
	"math/rand"
	"slices"
	"testing"

	"frontiersim/internal/fabric"
)

// randomPlacement draws n distinct compute nodes in random order, so
// rank order does not follow node order and groups interleave.
func randomPlacement(rng *rand.Rand, f *fabric.Fabric, n int) []int {
	return rng.Perm(f.Cfg.ComputeNodes())[:n]
}

// mapGroupsSpanned is the map-based group count NewComm used to keep.
func mapGroupsSpanned(f *fabric.Fabric, nodes []int) int {
	gs := map[int]bool{}
	for _, n := range nodes {
		gs[f.EndpointGroup(f.NodeEndpoints(n)[0])] = true
	}
	return len(gs)
}

// mapSplitNodes is the map-based SplitOne node list: first appearance
// over ranks in rank order, deduplicated by a seen-set.
func mapSplitNodes(c *Comm, color func(int) int, col int) []int {
	var nodes []int
	seen := map[int]bool{}
	for r := 0; r < c.Size(); r++ {
		if color(r) != col {
			continue
		}
		if n := c.NodeOf(r); !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	return nodes
}

func TestGroupsSpannedMatchesMapReference(t *testing.T) {
	f, err := fabric.NewDragonfly(frontierConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 7, 128, 129, 1000, 9472} {
		nodes := randomPlacement(rng, f, n)
		want := mapGroupsSpanned(f, nodes)
		if got := f.GroupsSpanned(nodes); got != want {
			t.Errorf("%d nodes: fabric.GroupsSpanned = %d, map reference %d", n, got, want)
		}
		c, err := NewComm(f, nodes, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.GroupsSpanned(); got != want {
			t.Errorf("%d nodes: Comm.GroupsSpanned = %d, map reference %d", n, got, want)
		}
		for r := 0; r < c.Size(); r += 5 {
			if got, want := c.EndpointOf(r), f.NodeEndpoints(c.NodeOf(r))[r%c.PPN%f.Cfg.NICsPerNode]; got != want {
				t.Fatalf("%d nodes: EndpointOf(%d) = %d, want %d", n, r, got, want)
			}
		}
	}
}

// SplitOne and Split must produce the node lists the map-based dedup
// produced, for contiguous (Size) and strided (Stride) colorings, on
// placements whose rank order does not follow node order.
func TestSplitMatchesMapReference(t *testing.T) {
	f := testFabric(t)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		c, err := NewComm(f, randomPlacement(rng, f, 1+rng.Intn(48)), 1+rng.Intn(9))
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(c.Size())
		colorings := map[string]func(int) int{
			"size":   func(r int) int { return r / k },
			"stride": func(r int) int { return r % k },
		}
		for name, color := range colorings {
			all, err := c.Split(color)
			if err != nil {
				t.Fatal(err)
			}
			for col := 0; col <= c.Size()/k+k; col++ {
				want := mapSplitNodes(c, color, col)
				sub, err := c.SplitOne(color, col)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					if sub != nil || all[col] != nil {
						t.Fatalf("trial %d %s/%d color %d: empty color produced a communicator", trial, name, k, col)
					}
					continue
				}
				if !slices.Equal(sub.Nodes, want) || !slices.Equal(all[col].Nodes, want) {
					t.Fatalf("trial %d %s/%d color %d: SplitOne %v, Split %v, map reference %v",
						trial, name, k, col, sub.Nodes, all[col].Nodes, want)
				}
				if sub.GroupsSpanned() != mapGroupsSpanned(f, want) {
					t.Fatalf("trial %d %s/%d color %d: sub-communicator group count wrong", trial, name, k, col)
				}
			}
		}
	}
}

// NewComm's cost must not grow allocations with the placement: the
// group count and the duplicate check both use fixed-size bitmaps.
func TestNewCommAllocsIndependentOfSize(t *testing.T) {
	f, err := fabric.NewDragonfly(frontierConfig())
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		nodes := nodeRange(n)
		return testing.AllocsPerRun(20, func() {
			if _, err := NewComm(f, nodes, 8); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(16), allocs(9000); small != large {
		t.Errorf("NewComm allocs/op: %v for 16 nodes, %v for 9000 nodes", small, large)
	}
}

// RankGroup walks only the rank-0 subgroup's ranks. For a block of k
// ranks (stride 1) and for every k-th rank (stride k) it must build the
// communicator SplitOne(color, 0) and Split(color)[0] build, on
// placements whose rank order does not follow node order.
func TestRankGroupMatchesSplit(t *testing.T) {
	f := testFabric(t)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		c, err := NewComm(f, randomPlacement(rng, f, 1+rng.Intn(48)), 1+rng.Intn(9))
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(c.Size())
		cases := []struct {
			name      string
			stride, n int
			color     func(int) int
		}{
			{"block", 1, k, func(r int) int { return r / k }},
			{"stride", k, c.Size(), func(r int) int { return r % k }},
		}
		for _, tc := range cases {
			got, err := c.RankGroup(tc.stride, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			one, err := c.SplitOne(tc.color, 0)
			if err != nil {
				t.Fatal(err)
			}
			all, err := c.Split(tc.color)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []*Comm{one, all[0]} {
				if !slices.Equal(got.Nodes, want.Nodes) || got.PPN != want.PPN || got.GroupsSpanned() != want.GroupsSpanned() {
					t.Fatalf("trial %d %s/%d: RankGroup %v ppn %d groups %d, split %v ppn %d groups %d",
						trial, tc.name, k, got.Nodes, got.PPN, got.GroupsSpanned(), want.Nodes, want.PPN, want.GroupsSpanned())
				}
			}
		}
	}

	c, err := NewComm(f, []int{3, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sub, err := c.RankGroup(1, 0); sub != nil || err != nil {
		t.Errorf("empty rank group = %v, %v; want nil, nil", sub, err)
	}
	if _, err := c.RankGroup(0, 2); err == nil {
		t.Error("stride 0 accepted")
	}
}
