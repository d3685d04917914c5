package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"frontiersim/internal/campaign"
	"frontiersim/internal/campaign/cache"
	"frontiersim/internal/experiments"
	"frontiersim/internal/machine"
	"frontiersim/internal/network"
	"frontiersim/internal/rng"
)

// serveConfig sizes the whatif-serve workload.
type serveConfig struct {
	// machineName names a built-in machine in every request; when empty,
	// spec is sent inline instead.
	machineName string
	spec        machine.Spec
	experiments []string
	// Every writeEvery-th request of a client asks a new key; the others
	// repeat one of its last keyWindow keys, the newest the most popular
	// (Zipf exponent zipfS). The window keeps the mix of hits and misses
	// the same from round to round however long a run lasts.
	writeEvery, keyWindow int
	zipfS                 float64
	// cacheBytes is the result-cache budget, small enough that inserts
	// evict; solutionBytes the server's solver solution-cache budget.
	cacheBytes, solutionBytes int64
	// Set-up is timed on setupBatches batches of setups servers, setupGap
	// apart. roundRequests is the requests per round, split evenly between
	// the clients; captureKeys and
	// tracedCaptureKeys how many miss keys are recomputed serially to
	// check the server's bodies.
	setups, setupBatches, roundRequests int
	setupGap                            time.Duration
	captureKeys, tracedCaptureKeys      int
	minTail                             int
}

func fullServe() serveConfig {
	return serveConfig{
		machineName: "frontier",
		spec:        machine.Frontier(),
		experiments: []string{"fig6", "table5", "ext-year", "ext-llm", "ablation-routing", "ext-operations"},
		writeEvery:  12, keyWindow: 12, zipfS: 2,
		cacheBytes: 48 << 10, solutionBytes: 64 << 20,
		// A round of 72 requests per client asks each experiment once as a
		// new key, so every round does the same mix of simulations.
		setups: 9, setupBatches: 5, setupGap: 400 * time.Millisecond, roundRequests: 2 * 72,
		captureKeys: 2, tracedCaptureKeys: 12,
		minTail: 10,
	}
}

const clients = 2

type whatifKey struct {
	exp  string
	seed int64
}

// liveServer is a campaign server listening on loopback.
type liveServer struct {
	url  string
	http *http.Server
	done chan error
}

// startServer builds a campaign server, serves it on a loopback port and
// waits for its health check: the set-up a user pays before the first
// request.
func startServer(cfg serveConfig) (*liveServer, error) {
	s, err := campaign.New(campaign.Config{Jobs: 2, CacheBytes: cfg.cacheBytes,
		SolutionCacheBytes: cfg.solutionBytes, CodeVersion: "perfbench"})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{url: "http://" + ln.Addr().String(), http: &http.Server{Handler: s.Handler()}, done: make(chan error, 1)}
	go func() { ls.done <- ls.http.Serve(ln) }()
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Get(ls.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

// stop closes the server and waits for its serve loop to return.
func (ls *liveServer) stop() error {
	err := ls.http.Close()
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// whatifClient is one analyst: a closed loop that sends its next request
// only after the previous reply, over its own single connection.
type whatifClient struct {
	id    int
	seed  int64
	hc    *http.Client
	r     *rand.Rand
	keys  []whatifKey
	fresh int
	sent  int
}

func (c *whatifClient) next(cfg serveConfig) whatifKey {
	defer func() { c.sent++ }()
	if len(c.keys) == 0 || c.sent%cfg.writeEvery == 0 {
		k := whatifKey{
			exp:  cfg.experiments[(c.id*len(cfg.experiments)/clients+c.fresh)%len(cfg.experiments)],
			seed: rng.Derive(c.seed, fmt.Sprintf("perfbench/whatif/%d/%d", c.id, c.fresh)),
		}
		c.fresh++
		c.keys = append(c.keys, k)
		return k
	}
	w := c.keys[max(0, len(c.keys)-cfg.keyWindow):]
	return w[len(w)-1-int(rand.NewZipf(c.r, cfg.zipfS, 1, uint64(len(w)-1)).Uint64())]
}

// sample is one completed request.
type sample struct {
	key     whatifKey
	outcome string
	latency time.Duration
	traced  bool
}

// load records what both clients saw.
type load struct {
	mu        sync.Mutex
	samples   []sample
	bodies    map[whatifKey][32]byte
	firstMiss map[whatifKey]time.Duration
	missOrder []whatifKey
	attempted int
	failed    int
	misses    int
	errs      []string
	rounds    []serveRound
}

// serveRound is one round of requests: its wall-clock and process CPU
// time and what it allocated, calibration slices left out, and its work
// in calibration units.
type serveRound struct {
	traced     bool
	wall, proc time.Duration
	alloc      uint64
	ref        float64
	sliceCPU   time.Duration
}

func (l *load) record(cfg serveConfig, s sample, body []byte, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err == nil {
		sum := sha256.Sum256(body)
		if prev, ok := l.bodies[s.key]; !ok {
			l.bodies[s.key] = sum
		} else if prev != sum {
			err = fmt.Errorf("%s seed %d: body differs from the key's first reply", s.key.exp, s.key.seed)
		}
	}
	if err != nil {
		l.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, err.Error())
		}
	} else {
		l.samples = append(l.samples, s)
		if s.outcome == string(cache.Miss) {
			l.misses++
		}
		if _, ok := l.firstMiss[s.key]; !ok && s.outcome == string(cache.Miss) {
			l.firstMiss[s.key] = s.latency
			l.missOrder = append(l.missOrder, s.key)
		}
	}
}

// roundTimes returns the wall-clock seconds of the rounds of one phase.
func (l *load) roundTimes(traced bool) []float64 {
	var out []float64
	for _, r := range l.rounds {
		if r.traced == traced {
			out = append(out, seconds(r.wall))
		}
	}
	return out
}

// do sends one /v1/run request and returns the body and X-Cache outcome.
func (c *whatifClient) do(url string, cfg serveConfig, k whatifKey) ([]byte, string, error) {
	req := map[string]any{"experiment": k.exp, "seed": k.seed, "quick": true}
	if cfg.machineName != "" {
		req["machine"] = cfg.machineName
	} else {
		spec, err := machine.Dump(cfg.spec)
		if err != nil {
			return nil, "", err
		}
		req["spec"] = json.RawMessage(spec)
	}
	b, err := json.Marshal(req)
	if err != nil {
		return nil, "", err
	}
	resp, err := c.hc.Post(url+"/v1/run", "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s seed %d: %s: %s", k.exp, k.seed, resp.Status, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("X-Cache"), nil
}

// runPhase runs rounds until the deadline. A round is segments in which
// each client sends cfg.writeEvery requests, each after the reply to the
// last; between segments the load pauses for a calibration slice. It
// returns the phase's root span.
func runPhase(ls *liveServer, cfg serveConfig, cs []*whatifClient, l *load, tr *tracer, deadline time.Time) int {
	root := tr.begin("whatif.load", -1, -1)
	for time.Now().Before(deadline) {
		r := serveRound{traced: tr.on}
		pace := newPacer()
		misses := l.misses
		t, p0, a0 := time.Now(), procCPU(), allocated()
		pace.slice()
		for seg := 0; seg < cfg.roundRequests/clients/cfg.writeEvery; seg++ {
			var wg sync.WaitGroup
			for _, c := range cs {
				wg.Add(1)
				go func(c *whatifClient) {
					defer wg.Done()
					for i := 0; i < cfg.writeEvery; i++ {
						k := c.next(cfg)
						sp := tr.begin("campaign.Server /v1/run", root, c.id*1_000_000+c.sent)
						t := time.Now()
						body, outcome, err := c.do(ls.url, cfg, k)
						d := time.Since(t)
						tr.end(sp)
						l.record(cfg, sample{key: k, outcome: outcome, latency: d, traced: tr.on}, body, err)
					}
				}(c)
			}
			wg.Wait()
			pace.slice()
		}
		proc := procCPU() - p0
		r.wall, r.proc, r.alloc = time.Since(t)-pace.wall, proc-pace.total(), allocated()-a0
		r.ref, r.sliceCPU = pace.ref(proc), pace.meanSlice()
		fmt.Printf("round %d traced=%t wall_s=%.6f (process %.6f) work_ref=%.4f slice_ms=%.3f alloc_mb=%.1f misses=%d\n",
			len(l.rounds), r.traced, seconds(r.wall), seconds(r.proc), r.ref, ms(r.sliceCPU), mb(r.alloc), l.misses-misses)
		l.rounds = append(l.rounds, r)
	}
	tr.end(root)
	return root
}

type serverStats struct {
	Cache  cache.Stats                `json:"cache"`
	Solver network.SolutionCacheStats `json:"solver"`
}

func fetchStats(url string) (serverStats, error) {
	var st serverStats
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func runServe(o options, cfg serveConfig) (*result, error) {
	tr := newTracer()
	res := newResult(tr)
	// Set-up takes well under a millisecond, so it is timed in batches a
	// moment apart and the median taken over all of them.
	var setups []float64
	var ls *liveServer
	for i := 0; i < cfg.setupBatches*cfg.setups; i++ {
		if i > 0 && i%cfg.setups == 0 {
			time.Sleep(cfg.setupGap)
		}
		t := time.Now()
		s, err := startServer(cfg)
		if err != nil {
			return nil, fmt.Errorf("starting server: %w", err)
		}
		setups = append(setups, seconds(time.Since(t)))
		if i < cfg.setupBatches*cfg.setups-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stopping server: %w", err)
			}
			continue
		}
		ls = s
	}
	res.set("setup_s", median(setups), fmt.Sprintf("median of %d server starts", len(setups)))

	cs := make([]*whatifClient, clients)
	for i := range cs {
		cs[i] = &whatifClient{id: i, seed: o.seed,
			hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			r:  rng.New(rng.Derive(o.seed, fmt.Sprintf("perfbench/whatif/client/%d", i)))}
	}
	l := &load{bodies: map[whatifKey][32]byte{}, firstMiss: map[whatifKey]time.Duration{}}
	rss := startRSS()
	start := time.Now()
	tracedLoad := -1
	if o.trace {
		half := start.Add(o.window / 2)
		runPhase(ls, cfg, cs, l, tr, half)
		tr.on = true
		tracedLoad = runPhase(ls, cfg, cs, l, tr, start.Add(o.window))
		tr.on = false
	} else {
		runPhase(ls, cfg, cs, l, tr, start.Add(o.window))
	}
	peak := rss.peakMB()
	st, statsErr := fetchStats(ls.url)
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
	if err := ls.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}
	if statsErr != nil {
		return nil, statsErr
	}

	res.attempted, res.failed = l.attempted, l.failed
	res.check("requests", l.failed == 0, "%d of %d failed %v", l.failed, l.attempted, l.errs)
	var hitMs, missMs []float64
	for _, s := range l.samples {
		switch s.outcome {
		case string(cache.Hit):
			hitMs = append(hitMs, ms(s.latency))
		case string(cache.Miss):
			missMs = append(missMs, ms(s.latency))
		}
	}
	res.percentiles("bench.hit", "bench.hit_p99_ms", 0.99, hitMs, cfg.minTail, "/v1/run served from the result cache")
	res.percentiles("bench.miss", "bench.miss_p90_ms", 0.90, missMs, cfg.minTail, "/v1/run computed")
	var ref, proc, alloc, calMs []float64
	var busy time.Duration
	for i, r := range l.rounds {
		busy += r.wall
		// The first round fills the clients' key windows: a warm-up.
		if r.traced || (i == 0 && len(l.rounds) > 1) {
			continue
		}
		ref = append(ref, r.ref)
		proc = append(proc, seconds(r.proc))
		alloc = append(alloc, mb(r.alloc))
		calMs = append(calMs, ms(r.sliceCPU))
	}
	n := fmt.Sprintf("median of %d rounds of %d requests", len(ref), cfg.roundRequests)
	res.set("work_ref", median(ref), "process CPU time of a round in calibration units, "+n)
	res.set("bench.wall_s", median(proc), "process CPU time, "+n)
	res.set("bench.wall_clock_s", median(l.roundTimes(false)), n)
	res.set("bench.calib_ms", median(calMs), n)
	res.set("bench.alloc_mb", median(alloc), n)
	res.set("bench.req_per_s", float64(l.attempted)/seconds(busy),
		fmt.Sprintf("%d requests from 2 closed-loop clients over the rounds' wall-clock time", l.attempted))
	res.setPeakRSS([]float64{peak}, "load")
	if st.Cache.Evictions == 0 {
		res.warnings = append(res.warnings, fmt.Sprintf("the result cache never evicted (budget %d bytes): the window is too short for the workload's design", st.Cache.Budget))
	}

	keys := cfg.captureKeys
	if o.trace {
		keys = cfg.tracedCaptureKeys
		tr.on = true
	}
	if err := replayCaptures(o, cfg, res, tr, l, keys); err != nil {
		return nil, err
	}
	if o.trace {
		for name, s := range tr.selfTimes(tracedLoad) {
			fmt.Printf("self load %-34s %.6f s\n", name, s)
		}
		serveLayers(cfg, res, tr, l, st)
	}
	return res, nil
}

// replayCaptures recomputes the first miss keys serially, in process,
// with the options the server uses, and checks the server returned the
// same bytes.
func replayCaptures(o options, cfg serveConfig, res *result, tr *tracer, l *load, n int) error {
	spec := cfg.spec
	var captureMs, waitMs []float64
	wrong := 0
	for i, k := range l.missOrder {
		if i == n {
			break
		}
		sp := tr.begin("experiments.Capture", -1, i)
		t := time.Now()
		b, err := experiments.Capture(k.exp, experiments.Options{Quick: true, Seed: k.seed, Machine: &spec,
			Solutions: network.NewSolutionCache(cfg.solutionBytes)}, false)
		d := time.Since(t)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("capturing %s: %w", k.exp, err)
		}
		if sha256.Sum256(b) != l.bodies[k] {
			wrong++
		}
		captureMs = append(captureMs, ms(d))
		waitMs = append(waitMs, ms(l.firstMiss[k]-d))
	}
	got := n
	if len(l.missOrder) < n {
		got = len(l.missOrder)
	}
	res.check("server bodies match serial captures", wrong == 0 && got > 0, "%d of %d keys differ", wrong, got)
	res.set("experiments.capture_ms", median(captureMs), fmt.Sprintf("median of %d serial captures", len(captureMs)))
	res.set("harness.queue_wait_ms", median(waitMs), "median of miss latency minus serial capture time")
	return nil
}

// serveLayers fills the per-layer metrics of a traced run.
func serveLayers(cfg serveConfig, res *result, tr *tracer, l *load, st serverStats) {
	c := st.Cache
	res.set("cache.hits", float64(c.Hits), "/v1/stats")
	res.set("cache.misses", float64(c.Misses), "/v1/stats")
	res.set("cache.coalesced", float64(c.Coalesced), "/v1/stats")
	res.set("cache.evictions", float64(c.Evictions), "/v1/stats")
	res.set("cache.hit_ratio", float64(c.Hits)/float64(c.Hits+c.Misses+c.Coalesced), "hits over all lookups")
	res.set("network.solution_hits", float64(st.Solver.Hits), "server solver cache, /v1/stats")
	res.set("network.solution_misses", float64(st.Solver.Misses), "server solver cache, /v1/stats")
	res.set("network.solution_mb", mb(uint64(st.Solver.Bytes)), fmt.Sprintf("server solver cache, budget %d MB", cfg.solutionBytes>>20))
	res.set("campaign.requests", float64(l.attempted), "")
	res.set("campaign.failed", float64(l.failed), "")
	res.set("trace.overhead_s", median(l.roundTimes(true))-median(l.roundTimes(false)),
		"median traced minus median untraced round wall")

	// Key derivation and the hit path, the two things every request pays.
	spec := cfg.spec
	const reps = 2000
	sp := tr.begin("machine.Hash", -1, 0)
	t := time.Now()
	for i := 0; i < reps/10; i++ {
		if _, err := machine.Hash(spec); err != nil {
			res.fail("machine.Hash", err)
			return
		}
	}
	res.set("machine.hash_us", us(time.Since(t))/float64(reps/10), fmt.Sprintf("mean of %d", reps/10))
	tr.end(sp)
	specJSON, err := machine.Dump(spec)
	if err != nil {
		res.fail("machine.Dump", err)
		return
	}
	rc, err := cache.New(0, "")
	if err != nil {
		res.fail("cache.New", err)
		return
	}
	key := cache.ResultKey(cache.KeyInputs{SpecJSON: specJSON, Seed: 1, Experiment: "fig6", Quick: true, CodeVersion: "perfbench"})
	body := []byte("result")
	rc.GetOrCompute(key, func() ([]byte, error) { return body, nil })
	sp = tr.begin("cache.Cache.GetOrCompute hit", -1, 0)
	t = time.Now()
	for i := 0; i < reps; i++ {
		if _, outcome, _ := rc.GetOrCompute(key, nil); outcome != cache.Hit {
			res.fail("cache.GetOrCompute", fmt.Errorf("stored key was not a hit"))
			return
		}
	}
	res.set("cache.get_hit_us", us(time.Since(t))/reps, fmt.Sprintf("mean of %d", reps))
	tr.end(sp)
}
