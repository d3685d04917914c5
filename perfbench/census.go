package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"frontiersim/internal/experiments"
	"frontiersim/internal/fabric"
	"frontiersim/internal/harness"
	"frontiersim/internal/machine"
	"frontiersim/internal/network"
	"frontiersim/internal/report"
	"frontiersim/internal/rng"
)

// censusConfig sizes the fabric-census workload.
type censusConfig struct {
	frontier, summit machine.Spec
	// replayShifts Summit mpiGraph shifts each make one solver request on
	// a cold solution cache and replayHits repeats of it.
	replayShifts, replayHits int
	// reproduce lists the experiments rerun to check the round's results;
	// envelopes also checks them against Envelopes(), which only the full
	// machine can meet.
	reproduce          []string
	envelopes          bool
	minRounds, minTail int
}

func fullCensus() censusConfig {
	return censusConfig{frontier: machine.Frontier(), summit: machine.Summit(),
		replayShifts: 120, replayHits: 10, reproduce: censusExperiments, envelopes: true, minRounds: 3, minTail: 10}
}

// censusExperiments are the experiments one round reproduces, in order.
var censusExperiments = []string{"fig6", "table5", "ablation-cc", "ablation-routing", "ablation-ppn"}

// censusOut is every result one round produced, for checking.
type censusOut struct {
	fig6F, fig6S       network.MpiGraphResult
	table5             network.GPCNeTResult
	cc, ppn            [2]network.GPCNeTResult
	routing            [2]network.MpiGraphResult
	samples            int64
	solutions          network.SolutionCacheStats
	setup, wall        time.Duration // wall-clock
	setupCPU, cpu      time.Duration // thread CPU time
	ref                float64       // process CPU time in calibration units
	sliceCPU           time.Duration
	sliceWall          time.Duration
	fabricMs           []float64
	alloc              uint64
	frontierS, summitS float64
	gpcnetS            float64
	wallSpan           int
	traced             bool
	rssMB              float64
}

// censusRound builds fresh fabrics and a fresh solution cache, then runs
// the five experiments' network calls serially with the experiments'
// own configs (full sampling).
func censusRound(o options, cfg censusConfig, tr *tracer, op int) (*censusOut, error) {
	c := &censusOut{traced: tr.on}
	topoF, err := machine.Hash(cfg.frontier)
	if err != nil {
		return nil, err
	}
	topoS, err := machine.Hash(cfg.summit)
	if err != nil {
		return nil, err
	}
	// Empty sync.Pools and a heap returned to the OS, so each round
	// starts as a fresh process would.
	runtime.GC()
	rss := startRSS()
	defer func() { c.rssMB = rss.peakMB() }()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, cpu0 := time.Now(), threadCPU()
	var fabs [6]*fabric.Fabric // fig6 Frontier, fig6 Summit, table5, cc, routing, ppn
	for i := range fabs {
		spec := cfg.frontier
		if i == 1 {
			spec = cfg.summit
		}
		sp := tr.begin("machine.Spec.NewFabric", -1, op)
		t := time.Now()
		fabs[i], err = spec.NewFabric()
		c.fabricMs = append(c.fabricMs, ms(time.Since(t)))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sc := network.NewSolutionCache(0)
	c.setup, c.setupCPU = time.Since(start), threadCPU()-cpu0
	pace := newPacer()

	gpcnet := func(f *fabric.Fabric, g network.GPCNeTConfig) (network.GPCNeTResult, error) {
		if n := f.Cfg.ComputeNodes(); g.Nodes > n {
			g.Nodes = n
		}
		sp := tr.begin("network.RunGPCNeTWithCache", c.wallSpan, op)
		t := threadCPU()
		res, err := network.RunGPCNeTWithCache(f, g, rng.New(o.seed), sc, topoF)
		c.gpcnetS += seconds(threadCPU() - t)
		tr.end(sp)
		pace.slice()
		c.samples += int64(res.Isolated.Bandwidth.N + res.Congested.Bandwidth.N)
		return res, err
	}
	mpigraph := func(f *fabric.Fabric, mcfg network.MpiGraphConfig, r *rand.Rand, topo string, acc *float64) (network.MpiGraphResult, error) {
		sp := tr.begin("network.RunMpiGraphWithCache", c.wallSpan, op)
		t := threadCPU()
		res, err := network.RunMpiGraphWithCache(f, mcfg, r, sc, topo)
		*acc += seconds(threadCPU() - t)
		tr.end(sp)
		pace.slice()
		c.samples += int64(len(res.Samples))
		return res, err
	}

	a0 := allocated()
	c.wallSpan = tr.begin("round.wall", -1, op)
	t, cpu0, proc0 := time.Now(), threadCPU(), procCPU()
	pace.slice()
	err = func() error {
		// fig6: both censuses thread one rng, Frontier first.
		r := rng.New(o.seed)
		if c.fig6F, err = mpigraph(fabs[0], network.DefaultMpiGraphConfig(), r, topoF, &c.frontierS); err != nil {
			return fmt.Errorf("fig6 frontier: %w", err)
		}
		scfg := network.DefaultMpiGraphConfig()
		scfg.RanksPerNode = 1
		if c.fig6S, err = mpigraph(fabs[1], scfg, r, topoS, &c.summitS); err != nil {
			return fmt.Errorf("fig6 summit: %w", err)
		}
		if c.table5, err = gpcnet(fabs[2], network.DefaultGPCNeTConfig()); err != nil {
			return fmt.Errorf("table5: %w", err)
		}
		for i, on := range []bool{true, false} {
			g := network.DefaultGPCNeTConfig()
			g.CongestionControl = on
			if c.cc[i], err = gpcnet(fabs[3], g); err != nil {
				return fmt.Errorf("ablation-cc: %w", err)
			}
		}
		for i, valiant := range []int{0, 4} {
			m := network.DefaultMpiGraphConfig()
			m.Shifts, m.ValiantPaths, m.MeasureJitter = 2, valiant, 0
			if c.routing[i], err = mpigraph(fabs[4], m, rng.New(o.seed), topoF, &c.frontierS); err != nil {
				return fmt.Errorf("ablation-routing: %w", err)
			}
		}
		for i, ppn := range []int{8, 32} {
			g := network.DefaultGPCNeTConfig()
			g.PPN = ppn
			if c.ppn[i], err = gpcnet(fabs[5], g); err != nil {
				return fmt.Errorf("ablation-ppn: %w", err)
			}
		}
		return nil
	}()
	c.wall, c.cpu = time.Since(t)-pace.wall, threadCPU()-cpu0-pace.total()
	c.ref, c.sliceCPU, c.sliceWall = pace.ref(procCPU()-proc0), pace.meanSlice(), pace.wall
	tr.end(c.wallSpan)
	c.alloc = allocated() - a0
	c.solutions = sc.Stats()
	return c, err
}

// exact are the counts every round with the same seed repeats.
func (c *censusOut) exact() [4]int64 {
	return [4]int64{c.samples, int64(c.solutions.Hits), int64(c.solutions.Misses), c.solutions.Bytes}
}

func runCensus(o options, cfg censusConfig) (*result, error) {
	tr := newTracer()
	res := newResult(tr)
	var rounds []*censusOut
	rep, err := newSolveReplay(o, cfg)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(o.window)
	untraced := 0
	for op := 0; ; op++ {
		traced := o.trace && op%2 == 1
		if time.Now().After(deadline) && untraced >= cfg.minRounds && (!o.trace || len(rounds) > untraced) {
			break
		}
		tr.on = traced
		c, err := censusRound(o, cfg, tr, op)
		tr.on = false
		res.attempted += 9
		if err != nil {
			res.fail("census round", err)
			break
		}
		if !traced {
			untraced++
		}
		if op > 0 {
			// Only round 0's samples are checked in full.
			c.fig6F.Samples, c.fig6S.Samples = nil, nil
			c.routing[0].Samples, c.routing[1].Samples = nil, nil
		}
		fmt.Printf("round %d traced=%t setup_s=%.6f (wall-clock %.6f) wall_s=%.6f (wall-clock %.6f) work_ref=%.4f slice_ms=%.3f alloc_mb=%.1f rss_mb=%.1f\n",
			op, traced, seconds(c.setupCPU), seconds(c.setup), seconds(c.cpu), seconds(c.wall), c.ref, ms(c.sliceCPU), mb(c.alloc), c.rssMB)
		rounds = append(rounds, c)
		if !traced {
			rep.chunk(res)
		}
	}
	if len(rounds) == 0 {
		return nil, fmt.Errorf("no round completed")
	}
	for !rep.done() {
		rep.chunk(res)
	}
	res.check("served solutions equal solved ones", rep.wrong == 0, "%d served allocations differed", rep.wrong)
	first := rounds[0]
	for i, c := range rounds {
		res.check(fmt.Sprintf("round %d repeats round 0", i), c.exact() == first.exact() &&
			c.fig6F.Min == first.fig6F.Min && c.table5.BandwidthImpact == first.table5.BandwidthImpact,
			"samples, solution hits/misses/bytes %v vs %v", c.exact(), first.exact())
	}
	if err := checkCensus(o, cfg, res, first); err != nil {
		return nil, err
	}

	var setup, wall, clock, alloc, rate, rss, ref, calMs []float64
	for _, c := range rounds {
		if c.traced {
			continue
		}
		rss = append(rss, c.rssMB)
		setup = append(setup, seconds(c.setupCPU))
		wall = append(wall, seconds(c.cpu))
		clock = append(clock, seconds(c.wall))
		alloc = append(alloc, mb(c.alloc))
		rate = append(rate, float64(c.solutions.Hits+c.solutions.Misses)/seconds(c.cpu))
		ref = append(ref, c.ref)
		calMs = append(calMs, ms(c.sliceCPU))
	}
	n := fmt.Sprintf("median of %d rounds", len(wall))
	res.set("setup_s", median(setup), "thread CPU time, "+n)
	res.set("work_ref", median(ref), "process CPU time of a census in calibration units, "+n)
	res.set("bench.wall_s", median(wall), "thread CPU time, "+n)
	res.set("bench.wall_clock_s", median(clock), n)
	res.set("bench.calib_ms", median(calMs), n)
	res.set("bench.alloc_mb", median(alloc), n)
	res.set("network.alloc_mb", median(alloc), n)
	res.set("bench.req_per_s", median(rate), "solver requests per host second, "+n)

	res.percentiles("bench.hit", "bench.hit_p99_ms", 0.99, rep.hitMs, cfg.minTail, "Summit census solver requests served by the solution cache")
	res.percentiles("bench.miss", "bench.miss_p90_ms", 0.90, rep.missMs, cfg.minTail, "Summit census solver requests solved cold")
	res.setPeakRSS(rss, "round")

	ex := first.exact()
	for i, name := range []string{"network.census_samples", "network.solution_hits", "network.solution_misses"} {
		res.count(name, ex[i])
		res.set(name, float64(ex[i]), "exact, per round")
	}
	res.count("network.solution_bytes", ex[3])
	res.set("network.solution_mb", mb(uint64(ex[3])), "exact, stored at round end")
	if o.trace {
		if err := censusLayers(o, cfg, res, tr, rounds, median(clock)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkCensus runs each experiment itself on the run's seed and checks
// that the benchmark's network calls reproduced the experiment's numbers
// exactly. It checks each experiment against its envelope the way
// VerifyContext does, on the seed verify derives for it from the
// recorded root seed, with bound rows checked as bounds. The paper's
// sampled extremes do not hold at every seed (fig6's Frontier min is
// 52% off the paper at seeds 14 and 16), so the envelope at the run's
// own seed is reported as a count and a warning, not a failure.
func checkCensus(o options, cfg censusConfig, res *result, c *censusOut) error {
	envs := experiments.Envelopes()
	gb := func(v float64) float64 { return v / 1e9 }
	want := map[string]map[string]float64{
		"fig6": {"Frontier min": gb(c.fig6F.Min), "Frontier max": gb(c.fig6F.Max), "Summit mean": gb(c.fig6S.Mean)},
		"table5": {"RR two-sided lat avg": float64(c.table5.Isolated.Latency.Average) * 1e6,
			"impact factor (BW)": c.table5.BandwidthImpact},
		"ablation-cc":  {"CC on": c.cc[0].BandwidthImpact, "CC off": c.cc[1].BandwidthImpact},
		"ablation-ppn": {"8 PPN": c.ppn[0].BandwidthImpact, "32 PPN": c.ppn[1].BandwidthImpact},
	}
	wantText := map[string]string{
		"minimal only":         fmt.Sprintf("min %s, mean %s", report.GB(c.routing[0].Min), report.GB(c.routing[0].Mean)),
		"adaptive (UGAL-like)": fmt.Sprintf("min %s, mean %s", report.GB(c.routing[1].Min), report.GB(c.routing[1].Mean)),
	}
	spec := cfg.frontier
	outside := 0
	for _, id := range cfg.reproduce {
		r, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		t, err := r.Run(experiments.Options{Seed: o.seed, Machine: &spec, Solutions: network.NewSolutionCache(0)})
		if err != nil {
			res.fail(id, err)
			continue
		}
		matched, mismatched := 0, []string{}
		for _, row := range t.Rows {
			if v, ok := want[id][row.Name]; ok {
				matched++
				if row.MeasuredVal != v {
					mismatched = append(mismatched, fmt.Sprintf("%s %v vs %v", row.Name, row.MeasuredVal, v))
				}
			}
			if s, ok := wantText[row.Name]; ok && id == "ablation-routing" {
				matched++
				if row.Measured != s {
					mismatched = append(mismatched, fmt.Sprintf("%s %q vs %q", row.Name, row.Measured, s))
				}
			}
		}
		expect := len(want[id])
		if id == "ablation-routing" {
			expect = len(wantText)
		}
		res.check(id+" reproduced", matched == expect && len(mismatched) == 0,
			"%d of %d rows matched the benchmark's calls %v", matched, expect, mismatched)
		if !cfg.envelopes {
			continue
		}
		if ok, detail := envelopeCheck(t, envs[id]); !ok {
			outside++
			res.warnings = append(res.warnings, fmt.Sprintf("%s outside its envelope at seed %d: %s", id, o.seed, detail))
		}
		verifySeed := harness.DeriveSeed(experiments.DefaultOptions().Seed, id)
		vt, err := r.Run(experiments.Options{Seed: verifySeed, Machine: &spec, Solutions: network.NewSolutionCache(0)})
		if err != nil {
			res.fail(id, err)
			continue
		}
		ok, detail := envelopeCheck(vt, envs[id])
		res.check(id+" envelope", ok, "verify seed %d: %s", verifySeed, detail)
	}
	res.set("experiments.envelope_misses", float64(outside), fmt.Sprintf("experiments outside their envelope at seed %d", o.seed))
	return nil
}

// envelopeCheck passes a table the way VerifyContext does — no envelope,
// or every comparable row within it — except that a row whose paper value
// is a bound ("<= x", ">= x") passes when the bound holds, since its
// relative deviation measures nothing.
func envelopeCheck(t *report.Table, env float64) (bool, string) {
	if env == 0 {
		return true, "no envelope: passes if it runs"
	}
	worst := 0.0
	var broken []string
	for _, r := range t.Rows {
		paper := strings.TrimSpace(r.Paper)
		switch {
		case r.PaperVal == 0 || r.MeasuredVal == 0:
		case strings.HasPrefix(paper, "<"):
			if r.MeasuredVal > r.PaperVal {
				broken = append(broken, r.Name)
			}
		case strings.HasPrefix(paper, ">"):
			if r.MeasuredVal < r.PaperVal {
				broken = append(broken, r.Name)
			}
		default:
			worst = math.Max(worst, math.Abs(r.Deviation()))
		}
	}
	return worst <= env && len(broken) == 0,
		fmt.Sprintf("worst deviation %.1f%% (envelope %.0f%%), bounds broken %v", worst*100, env*100, broken)
}

// solveReplay sends the solution cache the solver requests of a Summit
// mpiGraph census: per shift one request on a cold cache (demand
// signature, lookup, solve, store) and replayHits repeats of it
// (signature, lookup, apply). The host's speed drifts over seconds, so
// the shifts are replayed in chunks, one after each untraced round, and
// the percentiles span the whole run. Latencies are in ms.
type solveReplay struct {
	cfg           censusConfig
	f             *fabric.Fabric
	topo          string
	nodes         []int
	r             *rand.Rand
	sc            *network.SolutionCache
	used          map[int]bool
	chunks, next  int
	hitMs, missMs []float64
	wrong         int
}

func newSolveReplay(o options, cfg censusConfig) (*solveReplay, error) {
	f, err := cfg.summit.NewFabric()
	if err != nil {
		return nil, err
	}
	topo, err := machine.Hash(cfg.summit)
	if err != nil {
		return nil, err
	}
	s := &solveReplay{cfg: cfg, f: f, topo: topo, nodes: make([]int, f.Cfg.ComputeNodes()),
		r: rng.New(rng.Derive(o.seed, "perfbench/summit-shifts")), sc: network.NewSolutionCache(0),
		used: map[int]bool{}, chunks: 4}
	for i := range s.nodes {
		s.nodes[i] = i
	}
	return s, nil
}

func (s *solveReplay) done() bool { return s.next >= s.chunks }

// chunk replays the next share of the shifts.
func (s *solveReplay) chunk(res *result) {
	runtime.GC()
	n := (s.cfg.replayShifts + s.chunks - 1) / s.chunks
	for i := 0; i < n && len(s.used) < len(s.nodes)-1; i++ {
		s.shift(res)
	}
	s.next++
}

func (s *solveReplay) shift(res *result) {
	shift := 1 + s.r.Intn(len(s.nodes)-1)
	for s.used[shift] {
		shift = 1 + s.r.Intn(len(s.nodes)-1)
	}
	s.used[shift] = true
	valiant := network.DefaultMpiGraphConfig().ValiantPaths
	demands, err := network.Shift(shift, 1, valiant)(s.f, s.nodes, s.r)
	if err != nil {
		res.fail("network.Shift", err)
		return
	}
	res.attempted++
	t := time.Now()
	sig := network.DemandSignature(demands)
	if _, hit := s.sc.Lookup(s.f, s.topo, sig); hit {
		res.fail("solution cache", fmt.Errorf("first request for shift %d was served", shift))
		return
	}
	if err := network.Solve(s.f, demands); err != nil {
		res.fail("network.Solve", err)
		return
	}
	s.sc.Store(s.f, s.topo, sig, demands)
	s.missMs = append(s.missMs, ms(time.Since(t)))
	rates := make([]float64, len(demands))
	for j, dm := range demands {
		rates[j] = dm.Rate
		dm.Rate = 0
	}
	for k := 0; k < s.cfg.replayHits; k++ {
		res.attempted++
		t := time.Now()
		sol, ok := s.sc.Lookup(s.f, s.topo, network.DemandSignature(demands))
		ok = ok && sol.Apply(demands)
		d := time.Since(t)
		if !ok {
			res.fail("solution cache", fmt.Errorf("repeat request for shift %d was not served", shift))
			continue
		}
		s.hitMs = append(s.hitMs, ms(d))
		for j, dm := range demands {
			if dm.Rate != rates[j] {
				s.wrong++
				break
			}
		}
	}
}

// censusLayers fills the per-layer metrics of a traced run: the rounds'
// own call times, and a replay of the census's far-shift demands against
// the routing and solver functions the census calls internally.
func censusLayers(o options, cfg censusConfig, res *result, tr *tracer, rounds []*censusOut, untracedWall float64) error {
	var fabMs, frontierS, summitS, gpcnetS, tracedWall, selfSum []float64
	for _, c := range rounds {
		if !c.traced {
			continue
		}
		fabMs = append(fabMs, c.fabricMs...)
		frontierS = append(frontierS, c.frontierS)
		summitS = append(summitS, c.summitS)
		gpcnetS = append(gpcnetS, c.gpcnetS)
		// The calibration slices are in the round's own self time.
		tracedWall = append(tracedWall, tr.duration(c.wallSpan)-seconds(c.sliceWall))
		self := tr.selfTimes(c.wallSpan)
		selfSum = append(selfSum, sum(mapValues(self))-seconds(c.sliceWall))
		for name, s := range self {
			fmt.Printf("self round %d %-34s %.6f s\n", len(tracedWall)-1, name, s)
		}
	}
	if len(tracedWall) == 0 {
		return fmt.Errorf("no traced round completed")
	}
	n := fmt.Sprintf("median of %d traced rounds", len(tracedWall))
	res.set("machine.new_fabric_ms", median(fabMs), fmt.Sprintf("median of %d builds", len(fabMs)))
	res.set("network.mpigraph_frontier_s", median(frontierS), "fig6 and ablation-routing Frontier censuses, "+n)
	res.set("network.mpigraph_summit_s", median(summitS), "fig6 Summit census, "+n)
	res.set("network.gpcnet_s", median(gpcnetS), "table5, ablation-cc and ablation-ppn, "+n)
	overhead := median(tracedWall) - untracedWall
	res.set("trace.overhead_s", overhead, "median traced minus median untraced round wall")
	res.check("self times add up to the round", abs(median(selfSum)-untracedWall) <= abs(overhead)+1e-6,
		"sum of self times %.6f s, untraced round %.6f s wall-clock, tracing overhead %.6f s", median(selfSum), untracedWall, overhead)

	// The far shift (node i to node i + n/2, every NIC) the fig6 census
	// always samples, routed and solved from outside.
	f, err := cfg.frontier.NewFabric()
	if err != nil {
		return err
	}
	nodes := f.Cfg.ComputeNodes()
	ranks := f.Cfg.NICsPerNode
	valiant := network.DefaultMpiGraphConfig().ValiantPaths
	r := rng.New(o.seed)
	demands := make([]*network.Demand, 0, nodes*ranks)
	sp := tr.begin("fabric.Fabric.AdaptivePaths", -1, 0)
	t := time.Now()
	for i := 0; i < nodes; i++ {
		for k := 0; k < ranks; k++ {
			src, dst := f.NodeEndpoint(i, k), f.NodeEndpoint((i+nodes/2)%nodes, k)
			ps, err := f.AdaptivePaths(src, dst, valiant, r)
			if err != nil {
				return err
			}
			demands = append(demands, &network.Demand{Src: src, Dst: dst, Paths: ps.Paths})
		}
	}
	res.set("fabric.adaptive_paths_us", us(time.Since(t))/float64(len(demands)), fmt.Sprintf("mean of %d calls", len(demands)))
	tr.end(sp)

	timeIt := func(name string, reps int, fn func() error) ([]float64, error) {
		var out []float64
		for i := 0; i < reps; i++ {
			sp := tr.begin(name, -1, i)
			t := time.Now()
			err := fn()
			out = append(out, float64(time.Since(t)))
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		return out, nil
	}
	sigNs, _ := timeIt("network.DemandSignature", 5, func() error { network.DemandSignature(demands); return nil })
	s := network.NewSolver()
	coldNs, err := timeIt("network.Solver.Solve", 3, func() error { return s.Solve(f, demands) })
	if err != nil {
		return err
	}
	cleanNs, err := timeIt("network.Solver.SolveDelta clean", 20, func() error { return s.SolveDelta(f, demands, []int{}) })
	if err != nil {
		return err
	}
	changed := []int{demands[0].Paths[0][0]}
	dirtyNs, err := timeIt("network.Solver.SolveDelta dirty", 3, func() error { return s.SolveDelta(f, demands, changed) })
	if err != nil {
		return err
	}
	res.set("network.demand_signature_us", median(sigNs)/1e3, fmt.Sprintf("median of 5, %d demands", len(demands)))
	res.set("network.solve_cold_ms", median(coldNs)/1e6, fmt.Sprintf("median of 3, %d demands", len(demands)))
	res.set("network.solve_delta_clean_us", median(cleanNs)/1e3, "median of 20, no problem link changed")
	res.set("network.solve_delta_dirty_ms", median(dirtyNs)/1e6, "median of 3, one problem link changed")
	return nil
}
