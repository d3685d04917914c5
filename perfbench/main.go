// Command perfbench is frontiersim's benchmark: one program that runs a
// named workload against the simulator's public packages for a fixed
// host-time window, checks the outputs, and prints every metric by name
// and unit. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload year-campaign --seed 1 --seconds 30 --trace 0
//
// Workloads (each stresses different layers; see BENCHMARK.json):
//
//   - year-campaign: a simulated year on the full 9,472-node Frontier spec
//     with ext-year's campaign config, set up from public calls so set-up
//     is timed apart from the run. Loads sim, scheduler, job, mpi,
//     workload and resilience; never calls the max-min solver.
//   - fabric-census: fig6 (Frontier and Summit), table5, ablation-cc,
//     ablation-routing and ablation-ppn at full sampling, through the same
//     network calls and configs the experiments use, with fresh fabrics
//     and a fresh solution cache per round. Loads only fabric and network.
//   - whatif-serve: an in-process campaign server (Jobs = 2) over loopback
//     HTTP, driven by a closed loop of two clients sending a seeded
//     quick-mode /v1/run stream; most requests repeat an earlier key with
//     skewed popularity, the rest ask new keys, and the result-cache
//     budget is small enough that inserts evict. A round is 72 requests
//     per client, in which each client asks each experiment once anew.
//
// With --trace 0 the last line of output is a JSON object holding every
// end-to-end metric; with --trace 1 it holds every per-layer metric.
// Every workload reports every metric name: a per-layer metric of a layer
// the workload never calls reads 0. The end-to-end metrics are defined
// once for all workloads, a round being one simulated year, one census,
// or one round of requests:
//
//   - setup_s: median host seconds of building the machine, fabrics or
//     server before the first timed operation, over several set-ups;
//   - peak_rss_mb: the median per-round peak of the resident set;
//   - work_ref: the median over rounds of a round's process CPU time in
//     units of a fixed calibration kernel whose slices are interleaved
//     with the round (see calib.go). The host's speed drifts by a quarter
//     between runs, in CPU time too; the ratio cancels most of that, and
//     a change to the program moves it as it moves the round's time.
//
// The raw numbers are per-layer: bench.wall_s (a year's or a census's
// thread CPU time, a round of requests' process CPU time),
// bench.wall_clock_s, bench.calib_ms (one slice of the kernel, the host's
// speed), bench.req_per_s, bench.alloc_mb (MB allocated per round, which
// on fabric-census swings by a tenth with sync.Pool reuse across GC
// cycles), and the latencies of single operations of the workload's
// cache layer, split by whether the cache served them (bench.hit_p50_ms,
// bench.hit_p99_ms, bench.miss_p50_ms, bench.miss_p90_ms): /v1/run
// requests by X-Cache; Env.Bind on the year's own placements by
// pricing-cache outcome; solver requests on a Summit mpiGraph census by
// solution-cache outcome. Single-operation latencies of a millisecond or
// less are set by host scheduling as much as by the program, and between
// runs on a shared host they spread by a third to a half of their
// median, too much to bound.
//
// The traced run times the benchmark's calls into each module from
// outside (spans kept in memory and written to --outdir at exit) and
// replays traffic captured from the workload against the public
// functions the program calls internally. End-to-end numbers come from
// untraced runs only.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef describes one reported metric. Moves names, for a per-layer
// metric, the end-to-end metric and workload it is expected to move.
type metricDef struct {
	Name, Unit, Better string
	Layer              bool
	Moves              string
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "work_ref", Unit: "ref", Better: "lower"},
}

const (
	yc = "year-campaign"
	fc = "fabric-census"
	ws = "whatif-serve"
)

var perLayer = []metricDef{
	{"core.new_ms", "ms", "lower", true, "setup_s on " + yc},
	{"machine.new_fabric_ms", "ms", "lower", true, "setup_s on " + yc + " and " + fc},
	{"workload.run_s", "s", "lower", true, "work_ref on " + yc},
	{"workload.program_builds", "count", "lower", true, "work_ref on " + yc},
	{"workload.program_build_ms", "ms", "lower", true, "work_ref on " + yc},
	{"sim.events", "count", "lower", true, "work_ref on " + yc},
	{"sim.events_per_s", "1/s", "higher", true, "work_ref on " + yc},
	{"sim.pending_max", "count", "lower", true, "peak_rss_mb on " + yc},
	{"scheduler.queue_depth_p50", "count", "lower", true, "work_ref on " + yc},
	{"scheduler.queue_depth_max", "count", "lower", true, "work_ref on " + yc},
	{"scheduler.jobs_submitted", "count", "higher", true, "none: correctness count on " + yc},
	{"scheduler.jobs_completed", "count", "higher", true, "none: correctness count on " + yc},
	{"scheduler.jobs_failed", "count", "lower", true, "none: correctness count on " + yc},
	{"scheduler.jobs_timeout", "count", "lower", true, "none: correctness count on " + yc},
	{"scheduler.utilization", "ratio", "higher", true, "none: correctness count on " + yc},
	{"scheduler.replay_us_per_job", "us", "lower", true, "work_ref on " + yc},
	{"job.bind_miss_us", "us", "lower", true, "work_ref on " + yc},
	{"job.bind_hit_us", "us", "lower", true, "work_ref on " + yc},
	{"job.placement_sig_us", "us", "lower", true, "work_ref on " + yc},
	{"job.estimate_us", "us", "lower", true, "work_ref on " + yc},
	{"mpi.new_comm_us", "us", "lower", true, "work_ref on " + yc},
	{"job.pricing_hits", "count", "higher", true, "work_ref on " + yc},
	{"job.pricing_misses", "count", "lower", true, "work_ref on " + yc},
	{"job.pricing_hit_ratio", "ratio", "higher", true, "work_ref on " + yc},
	{"resilience.simulate_ms", "ms", "lower", true, "work_ref on " + yc},
	{"resilience.failures", "count", "lower", true, "work_ref on " + yc},
	{"network.mpigraph_frontier_s", "s", "lower", true, "work_ref on " + fc},
	{"network.mpigraph_summit_s", "s", "lower", true, "work_ref on " + fc},
	{"network.gpcnet_s", "s", "lower", true, "work_ref on " + fc},
	{"network.solve_cold_ms", "ms", "lower", true, "work_ref on " + fc},
	{"network.solve_delta_dirty_ms", "ms", "lower", true, "work_ref on " + fc},
	{"network.solve_delta_clean_us", "us", "lower", true, "work_ref on " + fc},
	{"network.demand_signature_us", "us", "lower", true, "work_ref on " + fc},
	{"fabric.adaptive_paths_us", "us", "lower", true, "work_ref on " + fc},
	{"network.solution_hits", "count", "higher", true, "work_ref on " + fc + " and " + ws},
	{"network.solution_misses", "count", "lower", true, "work_ref on " + fc + " and " + ws},
	{"network.solution_mb", "MB", "lower", true, "peak_rss_mb on " + fc + " and " + ws},
	{"network.alloc_mb", "MB", "lower", true, "peak_rss_mb on " + fc},
	{"network.census_samples", "count", "higher", true, "none: correctness count on " + fc},
	{"experiments.envelope_misses", "count", "lower", true, "none: paper agreement of the run's seed on " + fc},
	{"cache.hits", "count", "higher", true, "work_ref on " + ws},
	{"cache.misses", "count", "lower", true, "work_ref on " + ws},
	{"cache.coalesced", "count", "higher", true, "work_ref on " + ws},
	{"cache.evictions", "count", "lower", true, "work_ref on " + ws},
	{"cache.hit_ratio", "ratio", "higher", true, "work_ref on " + ws},
	{"cache.get_hit_us", "us", "lower", true, "work_ref on " + ws},
	{"machine.hash_us", "us", "lower", true, "work_ref on " + ws},
	{"experiments.capture_ms", "ms", "lower", true, "work_ref on " + ws},
	{"harness.queue_wait_ms", "ms", "lower", true, "work_ref on " + ws},
	{"campaign.requests", "count", "higher", true, "work_ref on " + ws},
	{"campaign.failed", "count", "lower", true, "none: correctness count on " + ws},
	{"bench.wall_s", "s", "lower", true, "work_ref: the round's own CPU time, not calibrated"},
	{"bench.wall_clock_s", "s", "lower", true, "work_ref: the round's wall-clock time, hypervisor steal included"},
	{"bench.calib_ms", "ms", "lower", true, "none: the calibration kernel, the host's speed"},
	{"bench.req_per_s", "1/s", "higher", true, "work_ref: operations per host second (jobs, solver requests or HTTP requests)"},
	{"bench.alloc_mb", "MB", "lower", true, "work_ref and peak_rss_mb: MB allocated per round"},
	{"bench.hit_p50_ms", "ms", "lower", true, "work_ref: one cache-served operation"},
	{"bench.hit_p99_ms", "ms", "lower", true, "none: the tail of bench.hit_p50_ms, set by host scheduling and GC pauses"},
	{"bench.miss_p50_ms", "ms", "lower", true, "work_ref: one operation computed cold"},
	{"bench.miss_p90_ms", "ms", "lower", true, "work_ref: the tail of bench.miss_p50_ms"},
	{"trace.overhead_s", "s", "lower", true, "none: traced minus untraced wall-clock time per round"},
}

// result is what one workload run produced.
type result struct {
	attempted, failed int
	checks            []check
	warnings          []string // measurement-quality notes; they do not make a run incorrect
	values            map[string]float64
	notes             map[string]string // sample counts and provenance per metric
	counts            []count           // exact counts, printed on every run
	tr                *tracer
}

type check struct {
	name   string
	ok     bool
	detail string
}

type count struct {
	name  string
	value int64
}

func newResult(tr *tracer) *result {
	return &result{values: map[string]float64{}, notes: map[string]string{}, tr: tr}
}

func (r *result) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *result) count(name string, v int64) {
	r.counts = append(r.counts, count{name, v})
}

// fail records a failed operation and its cause.
func (r *result) fail(op string, err error) {
	r.failed++
	r.check(op, false, "%v", err)
}

// percentiles sets <prefix>_p50_ms and, under hi, the q-quantile of
// latency samples in ms, and warns when the high percentile has fewer
// than minTail samples beyond it.
func (r *result) percentiles(prefix, hi string, q float64, samples []float64, minTail int, source string) {
	n := len(samples)
	r.set(prefix+"_p50_ms", median(samples), fmt.Sprintf("n=%d, %s", n, source))
	r.set(hi, quantile(samples, q), fmt.Sprintf("n=%d, %d beyond, %s", n, beyond(n, q), source))
	r.check(prefix+" latency samples", n > 0, "%d samples", n)
	if beyond(n, q) < minTail {
		r.warnings = append(r.warnings, fmt.Sprintf("%s has %d samples beyond it, fewer than %d", hi, beyond(n, q), minTail))
	}
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return r.failed == 0
}

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	outdir   string
}

var workloads = map[string]func(options) (*result, error){
	yc: func(o options) (*result, error) { return runYear(o, fullYear()) },
	fc: func(o options) (*result, error) { return runCensus(o, fullCensus()) },
	ws: func(o options) (*result, error) { return runServe(o, fullServe()) },
}

func main() {
	var o options
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: year-campaign, fabric-census or whatif-serve")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&secs, "seconds", 30, "host seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	flag.StringVar(&o.outdir, "outdir", ".bench_build", "directory for trace files")
	flag.Parse()
	o.window = time.Duration(secs) * time.Second
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	printHost(o)
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if o.trace {
		path, err := res.tr.write(o.outdir, o.workload, o.seed)
		if err != nil {
			res.check("trace file", false, "%v", err)
		} else {
			fmt.Printf("trace %s (%d spans)\n", path, len(res.tr.spans))
		}
	}
	line, err := emit(res, o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints the checks, counts and metrics in readable form and
// returns the final JSON line.
func emit(res *result, traced bool) (string, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := map[string]any{}
	var lines []string
	for _, d := range defs {
		v, ok := res.values[d.Name]
		note := res.notes[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.check("metric "+d.Name, false, "measured %v", v)
			v = 0
		}
		if !ok {
			if !d.Layer {
				res.check("metric "+d.Name, false, "end-to-end metric not measured")
			}
			note = "not exercised by this workload"
		}
		if d.Layer {
			note = strings.TrimPrefix(note+"; moves "+d.Moves, "; ")
		}
		lines = append(lines, fmt.Sprintf("metric %-34s %s %s (%s)", d.Name, strconv.FormatFloat(v, 'f', -1, 64), d.Unit, note))
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	for _, c := range res.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Printf("check %-34s %-4s %s\n", c.name, status, c.detail)
	}
	for _, w := range res.warnings {
		fmt.Printf("warn  %s\n", w)
	}
	for _, c := range res.counts {
		fmt.Printf("count %-34s %d\n", c.name, c.value)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	b, err := json.Marshal(map[string]any{
		"correct":   res.correct(),
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	return string(b), err
}

// printHost records the host and build every result set was taken on.
func printHost(o options) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s workload=%s seed=%d seconds=%g trace=%t\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit,
		o.workload, o.seed, o.window.Seconds(), o.trace)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setPeakRSS records peak_rss_mb as the median of per-round peaks.
func (r *result) setPeakRSS(peaks []float64, what string) {
	v := median(peaks)
	r.check("peak rss", v > 0, "median of %d %s peaks sampled from /proc/self/statm", len(peaks), what)
	r.set("peak_rss_mb", v, fmt.Sprintf("median of %d %s peaks", len(peaks), what))
}

// threadCPU returns the CPU time the calling OS thread has used. Callers
// lock their goroutine to its thread first. Unlike wall-clock time it
// leaves out time the hypervisor steals from this VM's vCPUs, which on a
// shared host stretches wall-clock time by up to half from one minute to
// the next.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not name.
const rusageThread = 1

// allocated returns the bytes allocated by the process so far.
func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// rssSampler records the peak resident set of one stretch of a run: it
// returns freed heap to the OS, then reads the resident set every
// couple of milliseconds until stopped. VmHWM cannot be reset, so a
// round's own peak is sampled.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func startRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := residentMB()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- max(peak, residentMB())
				return
			case <-tick.C:
				peak = max(peak, residentMB())
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the peak it saw.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	return <-s.done
}

// residentMB reads the current resident set from /proc/self/statm, or
// returns 0 where that file does not exist.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
