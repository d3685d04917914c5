package job_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"frontiersim/internal/gpu"
	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/units"
	"frontiersim/internal/workload"
)

// richProgram exercises every phase kind pricing touches: roofline
// compute, node-local and fabric-spanning collectives (contiguous and
// strided groups), point-to-point, halo, bulk I/O, and a checkpoint.
func richProgram(env *job.Env, nodes, iters int) *job.Program {
	ppn := env.Node.Devices
	ranks := nodes * ppn
	return &job.Program{
		Name: "rich", Class: "test", Nodes: nodes, PPN: ppn, Iterations: iters,
		Setup: []job.Phase{
			{Name: "read", Kind: job.IO, Read: 64 * units.GiB},
			{Name: "warm", Kind: job.Compute, Flops: 1e15, Bytes: 2 * units.GiB},
		},
		Loop: []job.Phase{
			{Name: "work", Kind: job.Compute, Flops: 5e14, Precision: gpu.FP32, Efficiency: 0.7},
			{Name: "tp", Kind: job.Collective, Op: job.AllGather, Payload: 64 * units.MiB, Group: job.Group{Size: ppn}},
			{Name: "dp", Kind: job.Collective, Op: job.Allreduce, Payload: 128 * units.MiB, Group: job.Group{Size: ranks / ppn, Stride: ppn}},
			{Name: "pipe", Kind: job.Collective, Op: job.SendRecv, Payload: 16 * units.MiB},
			{Name: "halo", Kind: job.Collective, Op: job.Halo, Payload: 4 * units.MiB},
			{Name: "ckpt", Kind: job.Checkpoint, Write: 256 * units.GiB},
		},
	}
}

func bindOrFatal(t *testing.T, env *job.Env, p *job.Program, nodes []int) *job.Bound {
	t.Helper()
	b, err := env.Bind(p, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameTimes(a, b []units.Seconds) bool {
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

// A cache-served Bound must be bit-identical to a cold Bind — same
// per-phase times, same Total — including when the hit serves a
// different iteration count than the entry was stored with.
func TestPricingCacheBitIdentical(t *testing.T) {
	cold := testEnv(t)
	warm := testEnv(t)
	warm.Cache = job.NewPricingCache(0)
	warm.CacheKey = "test-machine"

	placements := [][]int{
		contiguous(4),
		warm.SpreadPlacement(4),
		{1, 2, 5, 9}, // spans groups unevenly
	}
	for _, iters := range []int{1, 7, 1000} {
		p := richProgram(cold, 4, iters)
		for _, nodes := range placements {
			want := bindOrFatal(t, cold, p, nodes)
			for pass := 0; pass < 2; pass++ { // miss then hit
				got := bindOrFatal(t, warm, p, nodes)
				if got.Total != want.Total {
					t.Fatalf("iters=%d pass=%d: Total %v != cold %v", iters, pass, got.Total, want.Total)
				}
				if !sameTimes(got.SetupTimes, want.SetupTimes) || !sameTimes(got.LoopTimes, want.LoopTimes) {
					t.Fatalf("iters=%d pass=%d: phase times diverge from cold bind", iters, pass)
				}
			}
		}
	}
	if hits, _ := warm.Cache.Stats(); hits == 0 {
		t.Error("no cache hits recorded across repeated binds")
	}
}

// Placements isomorphic under group relabeling share a signature; a
// different group interleaving (comm-group layout) does not, and
// placements spanning different group counts price differently.
func TestPlacementSignatureCanonicalization(t *testing.T) {
	env := testEnv(t) // Scaled(4,4,4): 16 nodes, 4 per group
	sig := func(nodes []int) job.Sig {
		s, ok := env.PlacementSignature(nodes)
		if !ok {
			t.Fatalf("signature rejected in-range placement %v", nodes)
		}
		return s
	}
	a := sig([]int{0, 1, 4}) // groups 0,0,1
	b := sig([]int{4, 5, 8}) // groups 1,1,2 — isomorphic to a
	c := sig([]int{0, 4, 5}) // groups 0,1,1 — same occupancy multiset, different layout
	if a != b {
		t.Error("isomorphic placements (relabeled groups) do not share a signature")
	}
	if a == c {
		t.Error("different group interleavings share a signature (occupancy multiset is not a sound key)")
	}

	if s1, s2 := sig([]int{0, 1, 2}), sig([]int{0, 4, 8}); s1 == s2 {
		t.Error("packed and spanning placements share a signature")
	}
	if _, ok := env.PlacementSignature([]int{0, 1 << 20}); ok {
		t.Error("out-of-machine node accepted by the signature")
	}
	if _, ok := env.PlacementSignature([]int{0, 4, 0}); ok {
		t.Error("repeated node accepted by the signature")
	}

	// The signature hashes run-length (label, count) pairs. Sequences
	// that share runs' labels but not their lengths, or lengths but not
	// labels, must stay apart; relabeled ones, in any node order, must
	// meet. Each placement is listed with its relabeled group sequence.
	cases := []struct {
		nodes []int
		seq   string
	}{
		{[]int{0, 1, 4}, "001"},
		{[]int{4, 5, 0}, "001"},
		{[]int{0, 4, 5}, "011"},
		{[]int{8, 0, 1}, "011"},
		{[]int{0, 4, 1}, "010"},
		{[]int{12, 8, 13}, "010"},
		{[]int{0, 4, 8}, "012"},
		{[]int{0, 1, 2}, "000"},
		{[]int{0, 1, 2, 4}, "0001"},
		{[]int{0, 4, 5, 6}, "0111"},
		{[]int{0, 1, 4, 5}, "0011"},
		{[]int{0, 4, 1, 5}, "0101"},
		{[]int{0, 4, 5, 1}, "0110"},
		{[]int{0, 4, 8, 12}, "0123"},
		{[]int{0, 4}, "01"},
		{[]int{0, 1}, "00"},
		{[]int{0}, "0"},
	}
	for i, a := range cases {
		for _, b := range cases[i+1:] {
			if same := sig(a.nodes) == sig(b.nodes); same != (a.seq == b.seq) {
				t.Errorf("%v (%s) vs %v (%s): signatures equal = %v", a.nodes, a.seq, b.nodes, b.seq, same)
			}
		}
	}

	// The layout distinction is not pedantry: at a scale where the
	// global taper binds, packed vs spread placements of the same job
	// genuinely price differently — so they must not share a key.
	spec := machine.Scaled(8, 16, 8)
	f, err := spec.NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	big, err := spec.JobEnv(f)
	if err != nil {
		t.Fatal(err)
	}
	p := &job.Program{Name: "wide", Nodes: 128, PPN: big.Node.Devices, Iterations: 5,
		Loop: []job.Phase{{Kind: job.Collective, Op: job.Allreduce, Payload: 128 * units.MiB}}}
	packed := bindOrFatal(t, big, p, contiguous(128))
	spread := bindOrFatal(t, big, p, big.SpreadPlacement(128))
	if packed.Total == spread.Total {
		t.Error("packed and spread 128-node placements priced identically; layout does not matter at this scale")
	}
	ps, _ := big.PlacementSignature(contiguous(128))
	ss, _ := big.PlacementSignature(big.SpreadPlacement(128))
	if ps == ss {
		t.Error("packed and spread 128-node placements share a signature")
	}
}

// The program signature covers pricing inputs only: comm-group strides
// change it, iteration counts and labels do not.
func TestProgramSignatureFields(t *testing.T) {
	env := testEnv(t)
	base := richProgram(env, 4, 10)
	if job.ProgramSignature(base) != job.ProgramSignature(richProgram(env, 4, 10)) {
		t.Error("identical programs hash differently")
	}
	iter := richProgram(env, 4, 999)
	if job.ProgramSignature(base) != job.ProgramSignature(iter) {
		t.Error("iteration count leaked into the program signature")
	}
	named := richProgram(env, 4, 10)
	named.Name, named.Class = "other", "other"
	if job.ProgramSignature(base) != job.ProgramSignature(named) {
		t.Error("name/class leaked into the program signature")
	}
	strided := richProgram(env, 4, 10)
	strided.Loop[2].Group.Stride = 1
	strided.Loop[2].Group.Size = env.Node.Devices
	if job.ProgramSignature(base) == job.ProgramSignature(strided) {
		t.Error("different comm-group strides share a program signature")
	}
	work := richProgram(env, 4, 10)
	work.Loop[0].Flops *= 2
	if job.ProgramSignature(base) == job.ProgramSignature(work) {
		t.Error("different phase work shares a program signature")
	}
}

// A bounded cache evicts least-recently-used entries; a nil cache is a
// valid always-miss cache; both stay safe under error paths.
func TestPricingCacheEvictionAndNil(t *testing.T) {
	env := testEnv(t)
	env.Cache = job.NewPricingCache(1)
	p := richProgram(env, 3, 5)
	a, b := []int{0, 1, 2}, []int{0, 4, 8}
	bindOrFatal(t, env, p, a) // miss, stored
	bindOrFatal(t, env, p, b) // miss, stored, evicts a
	if n := env.Cache.Len(); n != 1 {
		t.Fatalf("bounded cache holds %d entries, want 1", n)
	}
	bindOrFatal(t, env, p, b) // hit
	bindOrFatal(t, env, p, a) // miss again: was evicted
	hits, misses := env.Cache.Stats()
	if hits != 1 || misses != 3 {
		t.Errorf("hits/misses = %d/%d, want 1/3", hits, misses)
	}
	if r := env.Cache.HitRate(); r != 0.25 {
		t.Errorf("HitRate = %v, want 0.25", r)
	}

	var nilCache *job.PricingCache
	if h, m := nilCache.Stats(); h != 0 || m != 0 {
		t.Error("nil cache reports activity")
	}
	if nilCache.HitRate() != 0 || nilCache.Len() != 0 {
		t.Error("nil cache reports state")
	}

	// An invalid placement must surface Bind's canonical error, cache
	// or no cache, and must not poison the cache. The repeated-node
	// placement relabels to the same group sequence as the cached a, so
	// only rejecting it in the signature keeps a hit from being served.
	plain := testEnv(t)
	for _, bad := range [][]int{{0, 1, 1 << 20}, {0, 1, 1}} {
		if _, err := env.Bind(p, bad); err == nil {
			t.Errorf("cached env accepted invalid placement %v", bad)
		}
		if _, err := plain.Bind(p, bad); err == nil {
			t.Errorf("uncached env accepted invalid placement %v", bad)
		}
	}
}

// The cache is safe for concurrent binders (run under -race in CI).
func TestPricingCacheConcurrent(t *testing.T) {
	env := testEnv(t)
	env.Cache = job.NewPricingCache(2) // small: forces concurrent eviction
	p := richProgram(env, 3, 5)
	placements := [][]int{{0, 1, 2}, {0, 4, 8}, {0, 1, 4}, {4, 5, 8}}
	want := make([]units.Seconds, len(placements))
	coldEnv := testEnv(t)
	for i, nodes := range placements {
		want[i] = bindOrFatal(t, coldEnv, p, nodes).Total
	}
	wantEst, err := coldEnv.Estimate(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				nodes := placements[i%len(placements)]
				b, err := env.Bind(p, nodes)
				if err != nil {
					t.Error(err)
					return
				}
				if b.Total != want[i%len(placements)] {
					t.Errorf("concurrent bind diverged on %v", nodes)
					return
				}
				if est, err := env.Estimate(p); err != nil || est != wantEst {
					t.Errorf("concurrent estimate = %v, %v; want %v", est, err, wantEst)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// perNodeSignature is the encoding PlacementSignature replaced: one
// word per node carrying its relabeled group, after the node count.
func perNodeSignature(env *job.Env, nodes []int) [sha256.Size]byte {
	f := env.Fabric
	labels := map[int]uint32{}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(nodes)))
	for _, n := range nodes {
		g := f.EndpointGroup(f.NodeEndpoint(n, 0))
		if _, ok := labels[g]; !ok {
			labels[g] = uint32(len(labels))
		}
		buf = binary.LittleEndian.AppendUint32(buf, labels[g])
	}
	return sha256.Sum256(buf)
}

// The run-length signature partitions placements into exactly the
// classes the per-node encoding did, so every pricing-cache hit and
// miss is unchanged.
func TestPlacementSignatureMatchesPerNodeClasses(t *testing.T) {
	env := testEnv(t) // 16 nodes: small enough that classes collide often
	rng := rand.New(rand.NewSource(11))
	var placements [][]int
	for i := 0; i < 300; i++ {
		placements = append(placements, rng.Perm(16)[:1+rng.Intn(6)])
	}
	sigs := make([]job.Sig, len(placements))
	refs := make([][sha256.Size]byte, len(placements))
	for i, nodes := range placements {
		s, ok := env.PlacementSignature(nodes)
		if !ok {
			t.Fatalf("signature rejected %v", nodes)
		}
		sigs[i], refs[i] = s, perNodeSignature(env, nodes)
	}
	shared := 0
	for i := range placements {
		for k := i + 1; k < len(placements); k++ {
			if (sigs[i] == sigs[k]) != (refs[i] == refs[k]) {
				t.Fatalf("%v and %v: run-length equal = %v, per-node equal = %v",
					placements[i], placements[k], sigs[i] == sigs[k], refs[i] == refs[k])
			}
			if refs[i] == refs[k] {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Error("no two random placements shared a class; the comparison proved nothing")
	}
}

// PlacementSignature's allocations do not grow with the placement: a
// full-machine job costs the same number as a 16-node one.
func TestPlacementSignatureAllocsIndependentOfSize(t *testing.T) {
	spec := machine.Frontier()
	f, err := spec.NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.JobEnv(f)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		nodes := env.SpreadPlacement(n)
		return testing.AllocsPerRun(20, func() {
			if _, ok := env.PlacementSignature(nodes); !ok {
				t.Fatal("signature rejected a spread placement")
			}
		})
	}
	if small, large := allocs(16), allocs(9000); small != large {
		t.Errorf("PlacementSignature allocs/op: %v for 16 nodes, %v for 9000 nodes", small, large)
	}
}

// yearEnv is a 256-node machine (8 groups of 32 nodes) with the
// year-campaign program mix built for it.
func yearEnv(t testing.TB) (*job.Env, []workload.JobClass) {
	t.Helper()
	spec := machine.Scaled(8, 16, 8)
	f, err := spec.NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.JobEnv(f)
	if err != nil {
		t.Fatal(err)
	}
	return env, workload.YearMix(spec.Platform(), spec.NodeModel())
}

// yearPrograms builds every year-mix program at each power-of-two node
// count and a few iteration counts; shapes a class cannot build at a
// size are skipped.
func yearPrograms(t testing.TB, env *job.Env, mix []workload.JobClass) []*job.Program {
	t.Helper()
	var progs []*job.Program
	for _, c := range mix {
		for n := 1; n <= env.Fabric.Cfg.ComputeNodes(); n *= 2 {
			for _, iters := range []int{1, 8, 1024} {
				if p, err := c.ProgramFor(n, iters); err == nil {
					progs = append(progs, p)
				}
			}
		}
	}
	if len(progs) < 20 {
		t.Fatalf("year mix built only %d programs", len(progs))
	}
	return progs
}

// bindEstimate is Estimate as a Bind on the nominal spread placement,
// the form it took before the spread signature was memoized. It makes
// the same single lookup, so it is the reference for hits and misses.
func bindEstimate(env *job.Env, p *job.Program) (units.Seconds, error) {
	b, err := env.Bind(p, env.SpreadPlacement(p.Nodes))
	if err != nil {
		return 0, err
	}
	return b.Total, nil
}

// A cached Estimate equals an uncached one bit for bit, on the first
// (miss) and second (hit) call alike, and each call moves the cache's
// counters by exactly one lookup.
func TestEstimateCachedMatchesUncached(t *testing.T) {
	cold, mix := yearEnv(t)
	warm := *cold
	warm.Cache, warm.CacheKey = job.NewPricingCache(0), "year"
	for _, p := range yearPrograms(t, cold, mix) {
		want, err := cold.Estimate(p)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			h0, m0 := warm.Cache.Stats()
			got, err := warm.Estimate(p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("%s %d nodes x%d pass %d: cached estimate %v, uncached %v",
					p.Name, p.Nodes, p.Iterations, pass, got, want)
			}
			h1, m1 := warm.Cache.Stats()
			if (h1-h0)+(m1-m0) != 1 {
				t.Fatalf("%s %d nodes pass %d: estimate moved hits by %d and misses by %d",
					p.Name, p.Nodes, pass, h1-h0, m1-m0)
			}
			if pass == 1 && h1 != h0+1 {
				t.Fatalf("%s %d nodes: repeated estimate missed", p.Name, p.Nodes)
			}
		}
	}
}

// The memo keeps the spread placement's real signature, so a granted
// placement of the same shape hits the entry Estimate stored: the
// spread placement itself, and one on other nodes of the same groups.
func TestEstimateEntryServesSpreadShapedBind(t *testing.T) {
	env, mix := yearEnv(t)
	env.Cache, env.CacheKey = job.NewPricingCache(0), "year"
	f := env.Fabric
	total := f.Cfg.ComputeNodes()
	checked := 0
	for _, p := range yearPrograms(t, env, mix) {
		est, err := env.Estimate(p)
		if err != nil {
			t.Fatal(err)
		}
		spread := env.SpreadPlacement(p.Nodes)
		granted := [][]int{spread}
		if total/p.Nodes >= 2 {
			// Each spread node's successor is in the same group here,
			// and no other spread node sits between them.
			moved := make([]int, len(spread))
			for i, n := range spread {
				moved[i] = n + 1
				if f.NodeGroup(n+1) != f.NodeGroup(n) {
					moved = nil
					break
				}
			}
			if moved != nil {
				granted = append(granted, moved)
			}
		}
		for _, nodes := range granted {
			h0, m0 := env.Cache.Stats()
			b := bindOrFatal(t, env, p, nodes)
			if h1, m1 := env.Cache.Stats(); h1 != h0+1 || m1 != m0 {
				t.Fatalf("%s %d nodes on %v: bind after estimate moved hits %d, misses %d; want one hit",
					p.Name, p.Nodes, nodes[:min(len(nodes), 4)], h1-h0, m1-m0)
			}
			if b.Total != est {
				t.Fatalf("%s %d nodes: bind total %v, estimate %v", p.Name, p.Nodes, b.Total, est)
			}
			checked++
		}
	}
	if checked < 40 {
		t.Errorf("only %d spread-shaped binds checked", checked)
	}
}

// On a bounded LRU, memoized estimates and binds produce the same
// hit/miss sequence, the same evictions and the same totals as
// estimates made as binds on the spread placement.
func TestEstimateLRUSequenceMatchesBindEstimate(t *testing.T) {
	base, mix := yearEnv(t)
	progs := yearPrograms(t, base, mix)
	newEnv, refEnv := *base, *base
	newEnv.Cache, newEnv.CacheKey = job.NewPricingCache(4), "year"
	refEnv.Cache, refEnv.CacheKey = job.NewPricingCache(4), "year"
	total := base.Fabric.Cfg.ComputeNodes()
	rng := rand.New(rand.NewSource(16))
	outcome := func(c *job.PricingCache, h0, m0 uint64) string {
		h1, m1 := c.Stats()
		return fmt.Sprintf("+%d/+%d", h1-h0, m1-m0)
	}
	hits := 0
	for i := 0; i < 600; i++ {
		// A small working set of programs, so the 4-entry LRU both hits
		// and evicts.
		p := progs[rng.Intn(8)*len(progs)/8]
		var got, want units.Seconds
		var errGot, errWant error
		hn, mn := newEnv.Cache.Stats()
		hr, mr := refEnv.Cache.Stats()
		if rng.Intn(3) > 0 {
			got, errGot = newEnv.Estimate(p)
			want, errWant = bindEstimate(&refEnv, p)
		} else {
			nodes := rng.Perm(total)[:p.Nodes]
			if rng.Intn(2) == 0 {
				nodes = base.SpreadPlacement(p.Nodes)
			}
			bn, err := newEnv.Bind(p, nodes)
			if err != nil {
				t.Fatal(err)
			}
			br, err := refEnv.Bind(p, nodes)
			if err != nil {
				t.Fatal(err)
			}
			got, want = bn.Total, br.Total
		}
		if errGot != nil || errWant != nil {
			t.Fatalf("step %d: errors %v / %v", i, errGot, errWant)
		}
		on, or := outcome(newEnv.Cache, hn, mn), outcome(refEnv.Cache, hr, mr)
		if on != or || got != want || newEnv.Cache.Len() != refEnv.Cache.Len() {
			t.Fatalf("step %d (%s, %d nodes): outcome %s total %v len %d; reference %s total %v len %d",
				i, p.Name, p.Nodes, on, got, newEnv.Cache.Len(), or, want, refEnv.Cache.Len())
		}
		if on == "+1/+0" {
			hits++
		}
	}
	if hits == 0 {
		t.Error("the sequence never hit; it proved nothing about LRU order")
	}
	hn, mn := newEnv.Cache.Stats()
	hr, mr := refEnv.Cache.Stats()
	if hn != hr || mn != mr {
		t.Errorf("final stats %d/%d, reference %d/%d", hn, mn, hr, mr)
	}
}

// Two machines sharing one cache under different CacheKeys keep their
// own spread signatures. The two fabrics below spread a 4-node job over
// different group layouts (one node per group, two per group), so a
// memo shared between them would key each estimate by the wrong shape,
// and the granted spread placement would miss.
func TestEstimateSpreadMemoPerMachine(t *testing.T) {
	cache := job.NewPricingCache(0)
	envs := make([]*job.Env, 2)
	for i, spec := range []machine.Spec{machine.Scaled(4, 4, 4), machine.Scaled(2, 8, 4)} {
		f, err := spec.NewFabric()
		if err != nil {
			t.Fatal(err)
		}
		env, err := spec.JobEnv(f)
		if err != nil {
			t.Fatal(err)
		}
		env.Cache, env.CacheKey = cache, fmt.Sprintf("machine-%d", i)
		envs[i] = env
	}
	a, b := envs[0], envs[1]
	sa, _ := a.PlacementSignature(a.SpreadPlacement(4))
	sb, _ := b.PlacementSignature(b.SpreadPlacement(4))
	if sa == sb {
		t.Fatal("fixture: the two machines spread 4 nodes to the same shape")
	}
	p := richProgram(a, 4, 3)
	for _, env := range envs {
		cold := *env
		cold.Cache = nil
		want, err := cold.Estimate(p)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			if got, err := env.Estimate(p); err != nil || got != want {
				t.Fatalf("%s pass %d: estimate %v, %v; uncached %v", env.CacheKey, pass, got, err, want)
			}
		}
		h0, _ := cache.Stats()
		bindOrFatal(t, env, p, env.SpreadPlacement(4))
		if h1, _ := cache.Stats(); h1 != h0+1 {
			t.Errorf("%s: granted spread placement missed the entry its estimate stored", env.CacheKey)
		}
	}
	if hits, misses := cache.Stats(); hits != 4 || misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 4/2", hits, misses)
	}
}

// Estimate keeps its error order: the env, then the machine's node
// count, then the program.
func TestEstimateErrorOrder(t *testing.T) {
	env := testEnv(t)
	env.Cache = job.NewPricingCache(0)
	var nilEnv *job.Env
	if _, err := nilEnv.Estimate(richProgram(env, 2, 1)); err == nil {
		t.Error("nil env accepted")
	}
	huge := richProgram(env, 1<<20, 1)
	huge.Name = ""
	if _, err := env.Estimate(huge); err == nil || !strings.Contains(err.Error(), "machine has") {
		t.Errorf("oversized invalid program: %v, want the node-count error first", err)
	}
	bad := richProgram(env, 2, 1)
	bad.Name = ""
	if _, err := env.Estimate(bad); err == nil || !strings.Contains(err.Error(), "needs a name") {
		t.Errorf("invalid program: %v, want the program's own error", err)
	}
	neg := richProgram(env, 2, 1)
	neg.Nodes = -3
	if _, err := env.Estimate(neg); err == nil {
		t.Error("negative node count accepted")
	}
	if h, m := env.Cache.Stats(); h+m != 0 {
		t.Errorf("rejected estimates reached the cache: %d hits, %d misses", h, m)
	}
}

// BenchmarkEnvEstimate prices the largest year-mix programs on the full
// Frontier: "hit" on a warm pricing cache, "cold" without one (a spread
// placement, a communicator and every phase priced per call).
func BenchmarkEnvEstimate(b *testing.B) {
	spec := machine.Frontier()
	f, err := spec.NewFabric()
	if err != nil {
		b.Fatal(err)
	}
	cold, err := spec.JobEnv(f)
	if err != nil {
		b.Fatal(err)
	}
	var progs []*job.Program
	for _, c := range workload.YearMix(spec.Platform(), spec.NodeModel()) {
		if p, err := c.ProgramFor(8192, 64); err == nil {
			progs = append(progs, p)
		}
	}
	if len(progs) == 0 {
		b.Fatal("no year-mix program builds at 8192 nodes")
	}
	warm := *cold
	warm.Cache, warm.CacheKey = job.NewPricingCache(0), "frontier"
	for _, p := range progs {
		if _, err := warm.Estimate(p); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		env  *job.Env
	}{{"hit", &warm}, {"cold", cold}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.env.Estimate(progs[i%len(progs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
