package network

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"frontiersim/internal/fabric"
)

// MpiGraphConfig controls the mpiGraph census of Figure 6.
type MpiGraphConfig struct {
	// Nodes is the number of participating compute nodes (0 = all).
	Nodes int
	// RanksPerNode is the number of measuring ranks per node; Frontier
	// runs one rank per NIC (4), Summit one per node.
	RanksPerNode int
	// Shifts is how many shift permutations to sample out of the full
	// node count (mpiGraph proper runs them all; sampling keeps the
	// simulation tractable and the histogram converges quickly).
	Shifts int
	// ValiantPaths is the number of non-minimal paths adaptive routing
	// spreads each inter-group pair across.
	ValiantPaths int
	// MeasureJitter is the relative standard deviation of measurement
	// noise applied to each sample.
	MeasureJitter float64
}

// DefaultMpiGraphConfig returns the configuration used for Figure 6.
func DefaultMpiGraphConfig() MpiGraphConfig {
	return MpiGraphConfig{
		RanksPerNode:  4,
		Shifts:        8,
		ValiantPaths:  4,
		MeasureJitter: 0.02,
	}
}

// MpiGraphResult is the per-NIC receive-bandwidth census.
type MpiGraphResult struct {
	// Samples are per-pair receive bandwidths in bytes/s.
	Samples []float64
	Min     float64
	Max     float64
	Mean    float64
	Median  float64
}

// Histogram bins the samples into n equal-width bins over [0, max] and
// returns bin upper edges (bytes/s) and counts. An all-zero census
// (Max == 0) has no meaningful bin width, so it degenerates to a single
// zero-edge bin holding every sample rather than n bins of a fabricated
// 1 byte/s width.
func (r MpiGraphResult) Histogram(n int) (edges []float64, counts []int) {
	if len(r.Samples) == 0 || n < 1 {
		return nil, nil
	}
	if r.Max == 0 {
		return []float64{0}, []int{len(r.Samples)}
	}
	width := r.Max / float64(n)
	edges = make([]float64, n)
	counts = make([]int, n)
	for i := range edges {
		edges[i] = width * float64(i+1)
	}
	for _, s := range r.Samples {
		b := int(s / width)
		if b >= n {
			b = n - 1
		}
		counts[b]++
	}
	return edges, counts
}

// RunMpiGraph measures pairwise bandwidth under shift permutations: for
// each sampled shift s, rank k of node i sends to rank k of node i+s,
// all pairs simultaneously, and each pair's allocated rate is one sample.
// This is mpiGraph's measurement structure and reproduces Figure 6: a
// tight distribution on a non-blocking fat tree, a wide one on the
// tapered dragonfly.
func RunMpiGraph(f *fabric.Fabric, cfg MpiGraphConfig, rng *rand.Rand) (MpiGraphResult, error) {
	return RunMpiGraphWithCache(f, cfg, rng, nil, "")
}

// RunMpiGraphWithCache is RunMpiGraph with a solution cache: each
// shift's solve is served from (or stored into) solutions by literal
// demand signature. Path building still threads the shared rng even on
// a hit — the census's later draws (and therefore its byte-identical
// output) depend on the stream having advanced exactly as if the shift
// were computed cold; only the water-filling solve is skipped. topo is
// the canonical topology address (machine.Hash) used in cache keys, or
// "" to restrict hits to this exact fabric instance. One Solver serves
// every shift of the run, so its buffers are grown once, not per solve.
func RunMpiGraphWithCache(f *fabric.Fabric, cfg MpiGraphConfig, rng *rand.Rand, solutions *SolutionCache, topo string) (MpiGraphResult, error) {
	nodes, ranks, shifts, err := cfg.resolve(f)
	if err != nil {
		return MpiGraphResult{}, err
	}
	order := sampleShifts(nodes, shifts, rng)
	result := MpiGraphResult{Samples: make([]float64, 0, len(order)*nodes*ranks)}
	solver := NewSolver()
	for _, s := range order {
		demands, err := buildShiftDemands(f, nodes, ranks, s, cfg.ValiantPaths, rng)
		if err != nil {
			return MpiGraphResult{}, err
		}
		if err := solveCached(solver, f, demands, solutions, topo); err != nil {
			return MpiGraphResult{}, err
		}
		for _, d := range demands {
			v := d.Rate * (1 + cfg.MeasureJitter*rng.NormFloat64())
			if v < 0 {
				v = 0
			}
			result.Samples = append(result.Samples, v)
		}
	}
	return finishMpiGraph(result)
}

// resolve validates cfg against the fabric and applies defaults.
func (cfg MpiGraphConfig) resolve(f *fabric.Fabric) (nodes, ranks, shifts int, err error) {
	nodes = cfg.Nodes
	if nodes == 0 {
		nodes = f.Cfg.ComputeNodes()
	}
	if nodes > f.Cfg.ComputeNodes() {
		return 0, 0, 0, fmt.Errorf("network: %d nodes exceeds fabric's %d", nodes, f.Cfg.ComputeNodes())
	}
	if nodes < 2 {
		return 0, 0, 0, fmt.Errorf("network: mpiGraph needs at least two nodes")
	}
	ranks = cfg.RanksPerNode
	if ranks < 1 || ranks > f.Cfg.NICsPerNode {
		ranks = f.Cfg.NICsPerNode
	}
	shifts = cfg.Shifts
	if shifts <= 0 || shifts >= nodes {
		shifts = nodes - 1
	}
	return nodes, ranks, shifts, nil
}

// sampleShifts draws the set of shift permutations to measure, in sorted
// order. Distinct shifts in [1, nodes): always include 1 (mostly
// intra-group on Frontier's packed numbering) and a far shift. Sorted
// iteration matters: map order would otherwise reshuffle later rng draws
// between runs, making the census nondeterministic even at a fixed seed.
func sampleShifts(nodes, shifts int, rng *rand.Rand) []int {
	chosen := map[int]bool{1: true, nodes / 2: true}
	for len(chosen) < shifts {
		chosen[1+rng.Intn(nodes-1)] = true
	}
	order := make([]int, 0, len(chosen))
	for s := range chosen {
		order = append(order, s)
	}
	sort.Ints(order)
	return order
}

// buildShiftDemands constructs one shift's demand set for
// RunMpiGraphWithCache: rank k of node i sends to rank k of node i+s,
// each pair routed by AdaptivePaths with valiant detours drawn from the
// census's shared rng. Every pair's path set comes from one PathArena.
func buildShiftDemands(f *fabric.Fabric, nodes, ranks, s, valiant int, rng *rand.Rand) ([]*Demand, error) {
	// One slab allocation for the Demand objects themselves: a full-scale
	// shift is ~38k demands, and a per-demand heap object apiece was a
	// visible slice of the census's allocation bill. The slab is sized
	// exactly (s in [1, nodes) means j == i never fires), so the pointers
	// handed out below stay valid.
	slab := make([]Demand, 0, nodes*ranks)
	demands := make([]*Demand, 0, nodes*ranks)
	arena := fabric.NewPathArena()
	for i := 0; i < nodes; i++ {
		j := (i + s) % nodes
		if j == i {
			continue
		}
		for k := 0; k < ranks; k++ {
			src := f.NodeEndpoint(i, k)
			dst := f.NodeEndpoint(j, k)
			ps, err := arena.AdaptivePaths(f, src, dst, valiant, rng)
			if err != nil {
				return nil, err
			}
			slab = append(slab, Demand{Src: src, Dst: dst, Paths: ps.Paths})
			demands = append(demands, &slab[len(slab)-1])
		}
	}
	return demands, nil
}

// finishMpiGraph sorts the samples and fills the summary statistics.
func finishMpiGraph(result MpiGraphResult) (MpiGraphResult, error) {
	if len(result.Samples) == 0 {
		return MpiGraphResult{}, fmt.Errorf("network: no samples collected")
	}
	sort.Float64s(result.Samples)
	result.Min = result.Samples[0]
	result.Max = result.Samples[len(result.Samples)-1]
	result.Median = result.Samples[len(result.Samples)/2]
	var sum float64
	for _, v := range result.Samples {
		sum += v
	}
	result.Mean = sum / float64(len(result.Samples))
	return result, nil
}

// Spread reports the max/min ratio of the census — the paper's headline
// qualitative difference between the two fabrics (~2x on Summit's numbers
// vs ~6x on Frontier's).
func (r MpiGraphResult) Spread() float64 {
	if r.Min <= 0 {
		return math.Inf(1)
	}
	return r.Max / r.Min
}
