package network

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"frontiersim/internal/fabric"
)

// concurrentTopo is the topology key the concurrent tests share
// solutions under, as experiments run side by side share one per machine.
const concurrentTopo = "scaled-6-8-4"

// concurrently runs one job per seed, each in its own goroutine on its own
// fabric — the regime of experiments evaluated with -jobs > 1 — and
// returns the results in seed order.
func concurrently[R any](t *testing.T, seeds []int64, run func(f *fabric.Fabric, seed int64) (R, error)) []R {
	t.Helper()
	fabs := make([]*fabric.Fabric, len(seeds))
	for i := range fabs {
		fabs[i] = smallFabric(t)
	}
	out := make([]R, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			out[i], errs[i] = run(fabs[i], seed)
		}(i, seed)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// Censuses run concurrently through one shared solution cache must equal
// the serial uncached census sample-for-sample, cold and warm.
func TestMpiGraphParallelCachedMatchesUncached(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultMpiGraphConfig()
	cfg.Shifts = 6
	base, err := RunMpiGraph(f, cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	c := NewSolutionCache(0)
	census := func(f *fabric.Fabric, seed int64) (MpiGraphResult, error) {
		return RunMpiGraphWithCache(f, cfg, rand.New(rand.NewSource(seed)), c, concurrentTopo)
	}
	for pass, name := range []string{"cold", "warm"} {
		for j, res := range concurrently(t, []int64{7, 7, 7, 7}, census) {
			if !slices.Equal(res.Samples, base.Samples) {
				t.Fatalf("%s pass, job %d: samples differ from the uncached census", name, j)
			}
			if res.Min != base.Min || res.Max != base.Max || res.Mean != base.Mean || res.Median != base.Median {
				t.Fatalf("%s pass, job %d: summary stats differ: %+v vs %+v", name, j, res, base)
			}
		}
		if pass == 1 && c.Stats().Hits < uint64(cfg.Shifts) {
			t.Errorf("warm pass hits = %d, want >= %d (every shift)", c.Stats().Hits, cfg.Shifts)
		}
	}
}

// Different seeds must produce different censuses even when they run side
// by side through one cache: the cache never serves one seed's solve to
// another seed's demand set.
func TestMpiGraphParallelSeedSensitivity(t *testing.T) {
	cfg := DefaultMpiGraphConfig()
	cfg.Shifts = 4
	c := NewSolutionCache(0)
	res := concurrently(t, []int64{1, 2}, func(f *fabric.Fabric, seed int64) (MpiGraphResult, error) {
		return RunMpiGraphWithCache(f, cfg, rand.New(rand.NewSource(seed)), c, concurrentTopo)
	})
	if slices.Equal(res[0].Samples, res[1].Samples) {
		t.Error("seeds 1 and 2 produced identical censuses")
	}
	for i, seed := range []int64{1, 2} {
		want, err := RunMpiGraph(smallFabric(t), cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res[i].Samples, want.Samples) {
			t.Errorf("seed %d: concurrent census differs from its serial run", seed)
		}
	}
}

// The default (Figure 6) census, run concurrently through a shared cache,
// stays inside the physical envelope the short census is tested against.
func TestMpiGraphParallelEnvelope(t *testing.T) {
	c := NewSolutionCache(0)
	res := concurrently(t, []int64{3, 4}, func(f *fabric.Fabric, seed int64) (MpiGraphResult, error) {
		return RunMpiGraphWithCache(f, DefaultMpiGraphConfig(), rand.New(rand.NewSource(seed)), c, concurrentTopo)
	})
	f := smallFabric(t)
	nicPeak := float64(f.Cfg.LinkRate) * f.Cfg.EndpointEfficiency
	for i, r := range res {
		if len(r.Samples) == 0 {
			t.Fatalf("job %d: no samples", i)
		}
		if r.Max > nicPeak*1.1 {
			t.Errorf("job %d: max %.3g exceeds NIC ceiling %.3g", i, r.Max, nicPeak)
		}
		if r.Min <= 0 {
			t.Errorf("job %d: min should be positive", i)
		}
		if r.Spread() < 1.5 {
			t.Errorf("job %d: dragonfly spread = %.2f, want wide (>1.5)", i, r.Spread())
		}
	}
}

// A shared solution cache must not mask a bad census config.
func TestMpiGraphParallelErrors(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultMpiGraphConfig()
	cfg.Nodes = 10000
	if _, err := RunMpiGraphWithCache(f, cfg, rand.New(rand.NewSource(4)), NewSolutionCache(0), concurrentTopo); err == nil {
		t.Error("too many nodes should error")
	}
	cfg.Nodes = 1
	if _, err := RunMpiGraphWithCache(f, cfg, rand.New(rand.NewSource(4)), NewSolutionCache(0), concurrentTopo); err == nil {
		t.Error("one node should error")
	}
}

// GPCNeT trials on distinct seeds, run side by side through one shared
// cache, must each equal the same trial run serially without a cache.
func TestGPCNeTTrialsSerialParallelEquivalence(t *testing.T) {
	cfg := DefaultGPCNeTConfig()
	cfg.Nodes = 45
	cfg.LatencySamples = 400
	seeds := []int64{11, 12, 13, 14}
	serial := make([]GPCNeTResult, len(seeds))
	for i, seed := range seeds {
		res, err := RunGPCNeT(smallFabric(t), cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	c := NewSolutionCache(0)
	parallel := concurrently(t, seeds, func(f *fabric.Fabric, seed int64) (GPCNeTResult, error) {
		return RunGPCNeTWithCache(f, cfg, rand.New(rand.NewSource(seed)), c, concurrentTopo)
	})
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("trial %d differs between serial and concurrent runs:\n%+v\n%+v", i, serial[i], parallel[i])
		}
	}
	// Independent trials should not all collapse to one value.
	if serial[0].Isolated.Bandwidth.Average == serial[1].Isolated.Bandwidth.Average &&
		serial[1].Isolated.Bandwidth.Average == serial[2].Isolated.Bandwidth.Average {
		t.Error("distinct trials returned identical bandwidth averages; seeds look shared")
	}
}

// Every trial goes through the cached path; a shared cache must not mask
// a bad GPCNeT config.
func TestGPCNeTTrialsErrors(t *testing.T) {
	f := smallFabric(t)
	c := NewSolutionCache(0)
	cfg := DefaultGPCNeTConfig()
	if _, err := RunGPCNeTWithCache(f, cfg, rand.New(rand.NewSource(10)), c, concurrentTopo); err == nil {
		t.Error("9400 nodes on a 48-node fabric should error")
	}
	cfg.Nodes = 4
	if _, err := RunGPCNeTWithCache(f, cfg, rand.New(rand.NewSource(10)), c, concurrentTopo); err == nil {
		t.Error("too few nodes should error")
	}
}
