package job_test

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"frontiersim/internal/gpu"
	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/units"
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
