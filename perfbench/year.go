package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"frontiersim/internal/core"
	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/mpi"
	"frontiersim/internal/rng"
	"frontiersim/internal/scheduler"
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
	"frontiersim/internal/workload"
)

// yearConfig sizes the year-campaign workload.
type yearConfig struct {
	spec machine.Spec
	days float64
	// The sampler keeps the (program, placement) pair of every stride-th
	// job it sees running; replayPairs of them, spread over the year, are
	// re-bound in the Env.Bind replay, each repeats times cold and warm.
	stride, replayPairs, repeats int
	// minRounds is the fewest untraced rounds a run makes, whatever the
	// window; minTail the samples a high percentile needs beyond it.
	minRounds, minTail int
}

// fullYear is ext-year's campaign on the full Frontier spec.
func fullYear() yearConfig {
	return yearConfig{spec: machine.Frontier(), days: 365, stride: 4, replayPairs: 1000, repeats: 3, minRounds: 3, minTail: 10}
}

// placed is one running job's program and granted placement, with the
// runtime the scheduler priced it at.
type placed struct {
	prog  *job.Program
	alloc []int
	total units.Seconds
}

// yearSampler runs hourly in simulated time. It always keeps the
// placements of the jobs it samples for the Bind replay; in traced rounds
// it also reads queue depth and calendar size.
type yearSampler struct {
	sys        *core.System
	traced     bool
	ticks      int
	pendingMax int
	depths     []float64
	seen       map[int]bool
	pairs      []placed
	stride     int
}

func (s *yearSampler) sample() {
	s.ticks++
	if s.traced {
		if p := s.sys.Kernel.Pending(); p > s.pendingMax {
			s.pendingMax = p
		}
		s.depths = append(s.depths, float64(len(s.sys.Scheduler.Queue())))
	}
	for _, j := range s.sys.Scheduler.Running() {
		if j.Program == nil || j.Bound == nil || j.ID%s.stride != 0 || s.seen[j.ID] {
			continue
		}
		s.seen[j.ID] = true
		s.pairs = append(s.pairs, placed{prog: j.Program, alloc: append([]int(nil), j.Alloc...), total: j.Bound.Total})
	}
}

// yearRound is one simulated year.
type yearRound struct {
	traced       bool
	setup, wall  time.Duration // wall-clock
	setupCPU     time.Duration // thread CPU time
	cpu          time.Duration
	ref          float64 // process CPU time in calibration units
	sliceCPU     time.Duration
	sliceWall    time.Duration
	coreNew      time.Duration
	newFabric    time.Duration
	alloc        uint64
	stats        workload.Stats
	events       uint64
	hits, misses uint64
	unfinished   int
	builds       int
	buildSeconds float64
	sampler      *yearSampler
	wallSpan     int
	rssMB        float64
}

// counts are the exact numbers every round with the same seed repeats.
func (y *yearRound) counts() [7]int64 {
	s := y.stats
	return [7]int64{int64(y.events), int64(y.hits), int64(y.misses),
		int64(s.Submitted), int64(s.Completed), int64(s.Failed), int64(s.Timeouts)}
}

// yearRun sets up and runs one year. Set-up is everything before
// workload.Run: core.New, the pricing cache on Scheduler.Env, the
// machine hash it is keyed by, and the year mix.
func yearRun(o options, cfg yearConfig, tr *tracer, op int) (*yearRound, error) {
	y := &yearRound{traced: tr.on}
	rss := startRSS()
	defer func() { y.rssMB = rss.peakMB() }()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, cpu0 := time.Now(), threadCPU()
	sp := tr.begin("core.New", -1, op)
	t := time.Now()
	sys, err := core.New(cfg.spec, o.seed)
	y.coreNew = time.Since(t)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if sys.Scheduler == nil || sys.Scheduler.Env == nil {
		return nil, fmt.Errorf("machine %s has no scheduler", cfg.spec.Name)
	}
	cache := job.NewPricingCache(0)
	sys.Scheduler.Env.Cache = cache
	if sys.Scheduler.Env.CacheKey, err = machine.Hash(cfg.spec); err != nil {
		return nil, err
	}
	wcfg := workload.DefaultConfig()
	wcfg.Mix = workload.YearMix(cfg.spec.Platform(), cfg.spec.NodeModel())
	wcfg.Duration = units.Seconds(cfg.days) * units.Day
	wcfg.MeanInterarrival = 30 * units.Minute
	wcfg.ArrivalBatch = 4096
	wcfg.PacedFailures = true
	wcfg.BackfillDepth = 64
	y.setup, y.setupCPU = time.Since(start), threadCPU()-cpu0
	if tr.on {
		// A fabric build on its own, for the per-layer split of core.New.
		sp := tr.begin("machine.Spec.NewFabric", -1, op)
		t := time.Now()
		_, err := cfg.spec.NewFabric()
		y.newFabric = time.Since(t)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}

	y.wallSpan = tr.begin("round.wall", -1, op)
	runSpan := tr.begin("workload.Run", y.wallSpan, op)
	if tr.on {
		for i := range wcfg.Mix {
			build := wcfg.Mix[i].ProgramFor
			wcfg.Mix[i].ProgramFor = func(nodes, iters int) (*job.Program, error) {
				sp := tr.begin("workload.JobClass.ProgramFor", runSpan, op)
				p, err := build(nodes, iters)
				tr.end(sp)
				y.builds++
				return p, err
			}
		}
	}
	pace := newPacer()
	y.sampler = &yearSampler{sys: sys, traced: tr.on, seen: map[int]bool{}, stride: cfg.stride}
	sys.Kernel.Every(units.Hour, func() {
		sp := tr.begin("bench.sampler", runSpan, op)
		y.sampler.sample()
		pace.tick()
		tr.end(sp)
	})
	a0 := allocated()
	t, cpu0, proc0 := time.Now(), threadCPU(), procCPU()
	pace.slice()
	y.stats, err = workload.Run(sys, wcfg, o.seed)
	pace.slice()
	y.wall, y.cpu = time.Since(t)-pace.wall, threadCPU()-cpu0-pace.total()
	y.ref, y.sliceCPU, y.sliceWall = pace.ref(procCPU()-proc0), pace.meanSlice(), pace.wall
	y.alloc = allocated() - a0
	tr.end(runSpan)
	tr.end(y.wallSpan)
	if err != nil {
		return nil, err
	}
	if tr.on {
		for _, s := range tr.spans[runSpan+1:] {
			if s.Name == "workload.JobClass.ProgramFor" && s.Op == op {
				y.buildSeconds += s.End - s.Start
			}
		}
	}
	y.events = sys.Kernel.Executed() - uint64(y.sampler.ticks)
	y.hits, y.misses = cache.Stats()
	y.unfinished = len(sys.Scheduler.Running()) + len(sys.Scheduler.Queue())
	y.sampler.sys = nil // let the system go before the next round
	if op > 0 {
		y.sampler.pairs = nil // the replay uses round 0's
	}
	return y, nil
}

func runYear(o options, cfg yearConfig) (*result, error) {
	tr := newTracer()
	res := newResult(tr)
	var rounds []*yearRound
	var rep *bindReplay
	deadline := time.Now().Add(o.window)
	untraced := 0
	for op := 0; ; op++ {
		traced := o.trace && op%2 == 1
		if time.Now().After(deadline) && untraced >= cfg.minRounds && (!o.trace || len(rounds) > untraced) {
			break
		}
		tr.on = traced
		y, err := yearRun(o, cfg, tr, op)
		tr.on = false
		res.attempted++
		if err != nil {
			res.fail("workload.Run", err)
			break
		}
		if !traced {
			untraced++
		}
		fmt.Printf("round %d traced=%t setup_s=%.6f (wall-clock %.6f) wall_s=%.6f (wall-clock %.6f) work_ref=%.4f slice_ms=%.3f alloc_mb=%.1f rss_mb=%.1f\n",
			op, traced, seconds(y.setupCPU), seconds(y.setup), seconds(y.cpu), seconds(y.wall), y.ref, ms(y.sliceCPU), mb(y.alloc), y.rssMB)
		rounds = append(rounds, y)
		if op == 0 {
			if rep, err = newBindReplay(o, cfg, res, y.sampler.pairs); err != nil {
				return nil, err
			}
		} else if !traced {
			rep.chunk(res)
		}
	}
	if len(rounds) == 0 {
		return nil, fmt.Errorf("no round completed")
	}
	for !rep.done() {
		rep.chunk(res)
	}
	rep.finish(res)
	first := rounds[0]
	yearChecks(res, rounds)

	var setup, wall, clock, alloc, rate, rss, ref, calMs []float64
	for _, y := range rounds {
		if y.traced {
			continue
		}
		rss = append(rss, y.rssMB)
		setup = append(setup, seconds(y.setupCPU))
		wall = append(wall, seconds(y.cpu))
		clock = append(clock, seconds(y.wall))
		alloc = append(alloc, mb(y.alloc))
		rate = append(rate, float64(y.stats.Submitted)/seconds(y.cpu))
		ref = append(ref, y.ref)
		calMs = append(calMs, ms(y.sliceCPU))
	}
	n := fmt.Sprintf("median of %d rounds", len(wall))
	res.set("setup_s", median(setup), "thread CPU time, "+n)
	res.set("work_ref", median(ref), "process CPU time of a year in calibration units, "+n)
	res.set("bench.wall_s", median(wall), "thread CPU time, "+n)
	res.set("bench.wall_clock_s", median(clock), n)
	res.set("bench.calib_ms", median(calMs), n)
	res.set("bench.alloc_mb", median(alloc), n)
	res.set("bench.req_per_s", median(rate), "simulated jobs submitted per host second, "+n)

	res.percentiles("bench.hit", "bench.hit_p99_ms", 0.99, rep.hitMs, cfg.minTail, "Env.Bind served by the pricing cache")
	res.percentiles("bench.miss", "bench.miss_p90_ms", 0.90, rep.missMs, cfg.minTail, "Env.Bind priced cold")
	res.setPeakRSS(rss, "round")

	c := first.counts()
	for i, name := range []string{"sim.events", "job.pricing_hits", "job.pricing_misses",
		"scheduler.jobs_submitted", "scheduler.jobs_completed", "scheduler.jobs_failed", "scheduler.jobs_timeout"} {
		res.count(name, c[i])
		res.set(name, float64(c[i]), "exact")
	}
	if o.trace {
		tr.on = true
		if err := yearLayers(o, cfg, res, tr, rounds, rep, median(clock), median(wall)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// yearChecks checks the campaign invariants of every round and that
// rounds with the same seed repeat every exact count.
func yearChecks(res *result, rounds []*yearRound) {
	first := rounds[0]
	for i, y := range rounds {
		s := y.stats
		sum := s.Completed + s.Failed + s.Timeouts + y.unfinished
		res.check(fmt.Sprintf("round %d job accounting", i), s.Submitted == sum,
			"submitted %d = completed %d + failed %d + timeout %d + unfinished %d (queued or running at the horizon)",
			s.Submitted, s.Completed, s.Failed, s.Timeouts, y.unfinished)
		res.check(fmt.Sprintf("round %d utilization", i), s.Utilization > 0 && s.Utilization <= 1,
			"%.6f in (0, 1]", s.Utilization)
		res.check(fmt.Sprintf("round %d repeats round 0", i), y.counts() == first.counts(),
			"events, pricing hits/misses and job counts %v vs %v", y.counts(), first.counts())
	}
}

// stratify picks cfg.replayPairs of the sampled pairs, class by class in
// the proportions the year mix submits them, each class's share spread
// evenly over the year. Bind costs differ by orders of magnitude between
// classes, and long jobs are sampled more often than short ones; a fixed
// class mix keeps the latency percentiles from moving with the seed.
func stratify(cfg yearConfig, res *result, pairs []placed) ([]placed, error) {
	byClass := map[string][]placed{}
	for _, p := range pairs {
		byClass[p.prog.Class] = append(byClass[p.prog.Class], p)
	}
	mix := workload.YearMix(cfg.spec.Platform(), cfg.spec.NodeModel())
	var weights float64
	for _, cl := range mix {
		weights += cl.Weight
	}
	var out []placed
	for _, cl := range mix {
		// One program of the class names its Program.Class.
		prog, err := cl.ProgramFor(max(1, int(cl.MinFrac*float64(cfg.spec.Nodes()))), 64)
		if err != nil {
			return nil, fmt.Errorf("year mix class %s: %w", cl.Name, err)
		}
		have := byClass[prog.Class]
		want := int(math.Round(float64(cfg.replayPairs) * cl.Weight / weights))
		if len(have) < want {
			res.warnings = append(res.warnings, fmt.Sprintf("only %d sampled %s placements for the bind replay, want %d", len(have), cl.Name, want))
			want = len(have)
		}
		for k := 0; k < want; k++ {
			out = append(out, have[k*len(have)/want])
		}
	}
	return out, nil
}

// bindReplay re-binds the year's own sampled (program, placement) pairs
// on a fresh system. Per pair, a miss is a bind on an empty pricing cache
// and a hit a bind on a cache holding the pair's key; each latency is the
// least of cfg.repeats tries, the pair's service time without
// interference from the collector. The host's speed drifts over seconds,
// so the pairs are replayed in chunks of the same class mix, one after
// each untraced round, and the percentiles span the whole run. Every bind
// must reproduce the runtime the scheduler priced during the year.
type bindReplay struct {
	cfg           yearConfig
	base, warm    job.Env
	pairs         []placed
	chunks, next  int
	hitMs, missMs []float64
	mismatches    int
	wrongOutcome  int
}

func newBindReplay(o options, cfg yearConfig, res *result, sampled []placed) (*bindReplay, error) {
	pairs, err := stratify(cfg, res, sampled)
	if err != nil {
		return nil, err
	}
	sys, err := core.New(cfg.spec, o.seed)
	if err != nil {
		return nil, err
	}
	b := &bindReplay{cfg: cfg, base: *sys.Scheduler.Env, pairs: pairs, chunks: 4}
	if b.base.CacheKey, err = machine.Hash(cfg.spec); err != nil {
		return nil, err
	}
	b.warm = b.base
	b.warm.Cache = job.NewPricingCache(0)
	return b, nil
}

func (b *bindReplay) done() bool { return b.next >= b.chunks }

// chunk replays every chunks-th pair, starting from the next offset.
func (b *bindReplay) chunk(res *result) {
	runtime.GC()
	for i := b.next % b.chunks; i < len(b.pairs); i += b.chunks {
		p := b.pairs[i]
		miss, hit := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for k := 0; k < b.cfg.repeats; k++ {
			cold := b.base
			cold.Cache = job.NewPricingCache(0)
			miss = min(miss, b.bind(res, &cold, p, false))
		}
		b.warm.Bind(p.prog, p.alloc) // stores the key if no earlier pair did
		for k := 0; k < b.cfg.repeats; k++ {
			hit = min(hit, b.bind(res, &b.warm, p, true))
		}
		b.missMs = append(b.missMs, ms(miss))
		b.hitMs = append(b.hitMs, ms(hit))
	}
	b.next++
}

// bind binds p on env and returns its latency; wantHit says which
// pricing-cache outcome the bind must have.
func (b *bindReplay) bind(res *result, env *job.Env, p placed, wantHit bool) time.Duration {
	res.attempted++
	h0, m0 := env.Cache.Stats()
	t := time.Now()
	bound, err := env.Bind(p.prog, p.alloc)
	d := time.Since(t)
	if err != nil {
		res.fail("job.Env.Bind", err)
		return d
	}
	if bound.Total != p.total {
		b.mismatches++
	}
	h1, m1 := env.Cache.Stats()
	if wantHit != (h1 == h0+1 && m1 == m0) {
		b.wrongOutcome++
	}
	return d
}

func (b *bindReplay) finish(res *result) {
	res.check("bind replay reproduces the year's pricing", b.mismatches == 0 && b.wrongOutcome == 0 && len(b.pairs) > 0,
		"%d binds of %d pairs in %d chunks priced differently from the run; %d had the wrong cache outcome",
		b.mismatches, len(b.pairs), b.next, b.wrongOutcome)
}

// yearLayers fills the per-layer metrics of a traced run.
func yearLayers(o options, cfg yearConfig, res *result, tr *tracer, rounds []*yearRound, rep *bindReplay, untracedWall, untracedCPU float64) error {
	var coreNew, newFabric, runS, buildMs, tracedWall, selfSum []float64
	var traced *yearRound
	for _, y := range rounds {
		if !y.traced {
			continue
		}
		traced = y
		coreNew = append(coreNew, ms(y.coreNew))
		newFabric = append(newFabric, ms(y.newFabric))
		runS = append(runS, seconds(y.cpu))
		buildMs = append(buildMs, y.buildSeconds*1e3)
		// The calibration slices are in the sampler's spans.
		tracedWall = append(tracedWall, tr.duration(y.wallSpan)-seconds(y.sliceWall))
		self := tr.selfTimes(y.wallSpan)
		selfSum = append(selfSum, sum(mapValues(self))-seconds(y.sliceWall))
		for name, s := range self {
			fmt.Printf("self round %d %-34s %.6f s\n", len(tracedWall)-1, name, s)
		}
	}
	if traced == nil {
		return fmt.Errorf("no traced round completed")
	}
	n := fmt.Sprintf("median of %d traced rounds", len(runS))
	res.set("core.new_ms", median(coreNew), n)
	res.set("machine.new_fabric_ms", median(newFabric), n)
	res.set("workload.run_s", median(runS), "thread CPU time, "+n)
	res.set("workload.program_builds", float64(traced.builds), "exact, ProgramFor calls per year")
	res.set("workload.program_build_ms", median(buildMs), "ProgramFor time per year, "+n)
	res.set("sim.events_per_s", float64(traced.events)/untracedCPU, "sim.events over untraced bench.wall_s")
	res.set("sim.pending_max", float64(traced.sampler.pendingMax), "hourly Kernel.Pending samples")
	res.set("scheduler.queue_depth_p50", median(traced.sampler.depths), fmt.Sprintf("n=%d hourly samples", len(traced.sampler.depths)))
	res.set("scheduler.queue_depth_max", quantile(traced.sampler.depths, 1), fmt.Sprintf("n=%d hourly samples", len(traced.sampler.depths)))
	res.set("scheduler.utilization", traced.stats.Utilization, "")
	h, m := float64(traced.hits), float64(traced.misses)
	res.set("job.pricing_hit_ratio", h/(h+m), "")
	res.set("job.bind_hit_us", median(rep.hitMs)*1e3, fmt.Sprintf("median of %d", len(rep.hitMs)))
	res.set("job.bind_miss_us", median(rep.missMs)*1e3, fmt.Sprintf("median of %d", len(rep.missMs)))

	// The calls a cold bind makes, on the same pairs.
	var sigUs, newCommUs, estUs []float64
	for i, p := range rep.pairs {
		sp := tr.begin("job.Env.PlacementSignature", -1, i)
		t := time.Now()
		rep.base.PlacementSignature(p.alloc)
		sigUs = append(sigUs, us(time.Since(t)))
		tr.end(sp)

		sp = tr.begin("mpi.NewComm", -1, i)
		t = time.Now()
		_, err := mpi.NewComm(rep.base.Fabric, p.alloc, p.prog.PPN)
		newCommUs = append(newCommUs, us(time.Since(t)))
		tr.end(sp)
		if err != nil {
			res.fail("mpi.NewComm", err)
		}

		sp = tr.begin("job.Env.Estimate", -1, i)
		t = time.Now()
		_, err = rep.base.Estimate(p.prog)
		estUs = append(estUs, us(time.Since(t)))
		tr.end(sp)
		if err != nil {
			res.fail("job.Env.Estimate", err)
		}
	}
	res.set("job.placement_sig_us", median(sigUs), fmt.Sprintf("median of %d", len(sigUs)))
	res.set("mpi.new_comm_us", median(newCommUs), fmt.Sprintf("median of %d", len(newCommUs)))
	res.set("job.estimate_us", median(estUs), fmt.Sprintf("median of %d, no pricing cache", len(estUs)))
	overhead := median(tracedWall) - untracedWall
	res.set("trace.overhead_s", overhead, "median traced minus median untraced round wall")
	res.check("self times add up to the round", abs(median(selfSum)-untracedWall) <= abs(overhead)+1e-6,
		"sum of self times %.6f s, untraced round %.6f s wall-clock, tracing overhead %.6f s", median(selfSum), untracedWall, overhead)

	// The scheduler on its own: the sampled programs submitted at t=0 to
	// a fresh scheduler and run to completion.
	progs := map[*job.Program]bool{}
	var list []*job.Program
	for _, p := range rep.pairs {
		if !progs[p.prog] {
			progs[p.prog] = true
			list = append(list, p.prog)
		}
	}
	sys, err := core.New(cfg.spec, o.seed)
	if err != nil {
		return err
	}
	k := sim.NewKernel(o.seed)
	s := scheduler.New(k, sys.Fabric)
	env := *sys.Scheduler.Env
	env.Cache, env.CacheKey = job.NewPricingCache(0), rep.base.CacheKey
	s.Env, s.BackfillDepth = &env, 64
	sp := tr.begin("scheduler.replay", -1, 0)
	t := time.Now()
	for _, p := range list {
		res.attempted++
		if _, err := s.SubmitProgram(p, nil); err != nil {
			res.fail("scheduler.SubmitProgram", err)
		}
	}
	k.Run()
	d := time.Since(t)
	tr.end(sp)
	res.check("scheduler replay completes", len(list) > 0 && s.Finished == len(list) && s.FailedJobs == 0,
		"%d of %d programs finished, %d failed", s.Finished, len(list), s.FailedJobs)
	res.set("scheduler.replay_us_per_job", us(d)/float64(len(list)), fmt.Sprintf("%d programs", len(list)))

	// The failure trace workload.Run draws from a fresh rng.New(seed).
	var simMs []float64
	failures := 0
	for i := 0; i < 3; i++ {
		sp := tr.begin("resilience.Model.Simulate", -1, i)
		t := time.Now()
		trace := sys.Reliability.Simulate(units.Seconds(cfg.days)*units.Day, rng.New(o.seed))
		simMs = append(simMs, ms(time.Since(t)))
		tr.end(sp)
		failures = 0
		for _, f := range trace {
			if f.Interrupting {
				failures++
			}
		}
	}
	res.set("resilience.simulate_ms", median(simMs), "median of 3")
	res.set("resilience.failures", float64(failures), "exact, interrupting failures in the year's trace")
	res.check("failure trace matches the run", failures == traced.stats.NodeFailures,
		"%d interrupting failures replayed, %d handled in the run", failures, traced.stats.NodeFailures)
	return nil
}

func mapValues(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
