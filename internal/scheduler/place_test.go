package scheduler

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"frontiersim/internal/machine"
	"frontiersim/internal/sim"
)

// referencePlace is the sort-based placement Place replaced, kept
// verbatim apart from owning its membership scratch: gather per-group
// ascending runs, then a second ascending pass, then sort.Ints.
func referencePlace(s *Scheduler, n int) []int {
	if n <= s.nodesPerGroup {
		best := -1
		for g := 0; g < s.groups; g++ {
			f := s.groupFree[g]
			if f >= n && (best == -1 || f < s.groupFree[best]) {
				best = g
			}
		}
		if best >= 0 {
			return referenceTakeFromGroup(s, best, n)
		}
	}
	if s.freeHealthy < n {
		return nil
	}
	var gf []groupFreeCount
	for g := 0; g < s.groups; g++ {
		gf = append(gf, groupFreeCount{id: g, free: s.groupFree[g]})
	}
	sort.Slice(gf, func(i, k int) bool {
		if gf[i].free != gf[k].free {
			return gf[i].free > gf[k].free
		}
		return gf[i].id < gf[k].id
	})
	var alloc []int
	remaining := n
	groupsWithFree := 0
	for _, g := range gf {
		if g.free > 0 {
			groupsWithFree++
		}
	}
	share := (n + groupsWithFree - 1) / groupsWithFree
	for _, g := range gf {
		if remaining == 0 {
			break
		}
		take := share
		if take > g.free {
			take = g.free
		}
		if take > remaining {
			take = remaining
		}
		alloc = append(alloc, referenceTakeFromGroup(s, g.id, take)...)
		remaining -= take
	}
	if remaining > 0 {
		taken := make([]bool, s.totalNodes)
		for _, a := range alloc {
			taken[a] = true
		}
		for node := 0; node < s.totalNodes && remaining > 0; {
			w := s.freeBits[node>>6] >> (node & 63)
			if w == 0 {
				node = (node &^ 63) + 64
				continue
			}
			node += bits.TrailingZeros64(w)
			if node >= s.totalNodes {
				break
			}
			if !taken[node] {
				taken[node] = true
				alloc = append(alloc, node)
				remaining--
			}
			node++
		}
	}
	if remaining > 0 {
		return nil
	}
	sort.Ints(alloc)
	return alloc
}

func referenceTakeFromGroup(s *Scheduler, g, n int) []int {
	out := make([]int, 0, n)
	start := g * s.nodesPerGroup
	end := start + s.nodesPerGroup
	if end > s.totalNodes {
		end = s.totalNodes
	}
	for node := start; node < end && len(out) < n; {
		w := s.freeBits[node>>6] >> (node & 63)
		if w == 0 {
			node = (node &^ 63) + 64
			continue
		}
		node += bits.TrailingZeros64(w)
		if node >= end {
			break
		}
		out = append(out, node)
		node++
	}
	return out
}

// randomizeIndex overwrites the scheduler's node state with random free
// and unhealthy bitmaps and rebuilds the scheduling index from them.
// pFree and pSick vary per trial so some machines are nearly empty and
// some so fragmented that packed jobs fall through to spreading.
func randomizeIndex(s *Scheduler, rng *rand.Rand, pFree, pSick float64) {
	clear(s.freeBits)
	clear(s.groupFree)
	s.freeHealthy = 0
	for n := 0; n < s.totalNodes; n++ {
		s.free[n] = rng.Float64() < pFree
		s.unhealthy[n] = rng.Float64() < pSick
		if s.free[n] && !s.unhealthy[n] {
			s.setFree(n)
		}
	}
}

// Place must return exactly what the sort-based placement returned —
// ascending, distinct, free and healthy nodes — on the full 9,472-node
// machine, for packed and spread sizes alike, and must leave its mark
// bitmap all-zero for the next call.
func TestPlaceMatchesSortedReferenceProperty(t *testing.T) {
	f, err := machine.Frontier().NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	s := New(sim.NewKernel(1), f)
	if s.totalNodes != 9472 {
		t.Fatalf("Frontier has %d compute nodes, want 9472", s.totalNodes)
	}
	rng := rand.New(rand.NewSource(7))
	packed, spread, fellThrough, refused := 0, 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		randomizeIndex(s, rng, 0.05+0.9*rng.Float64(), 0.2*rng.Float64())
		for q := 0; q < 25; q++ {
			var n int
			switch q % 3 {
			case 0:
				n = 1 + rng.Intn(s.nodesPerGroup) // pack-sized
			case 1:
				n = s.nodesPerGroup + 1 + rng.Intn(2048) // spread
			default:
				n = 1 + rng.Intn(s.totalNodes) // anything, up to the machine
			}
			got := s.Place(n)
			want := referencePlace(s, n)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d n=%d: Place = %v..., reference = %v...", trial, n, prefix(got), prefix(want))
			}
			if slices.ContainsFunc(s.marks, func(w uint64) bool { return w != 0 }) {
				t.Fatalf("trial %d n=%d: mark bitmap not cleared", trial, n)
			}
			if got == nil {
				refused++
				continue
			}
			if len(got) != n {
				t.Fatalf("trial %d: %d-node job granted %d nodes", trial, n, len(got))
			}
			for i, node := range got {
				if i > 0 && node <= got[i-1] {
					t.Fatalf("trial %d n=%d: allocation not strictly ascending at %d", trial, n, i)
				}
				if !s.free[node] || s.unhealthy[node] {
					t.Fatalf("trial %d n=%d: node %d granted but not free and healthy", trial, n, node)
				}
			}
			switch g := f.GroupsSpanned(got); {
			case n > s.nodesPerGroup:
				spread++
			case g == 1:
				packed++
			default:
				fellThrough++
			}
		}
	}
	if packed == 0 || spread == 0 || fellThrough == 0 || refused == 0 {
		t.Errorf("property did not cover every regime: packed %d, spread %d, pack fell through %d, refused %d",
			packed, spread, fellThrough, refused)
	}
}

func prefix(a []int) []int {
	if len(a) > 8 {
		return a[:8]
	}
	return a
}
