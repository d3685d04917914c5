// Command frontier-serve runs the simulator as shared infrastructure: a
// long-running HTTP/JSON campaign service over the experiment registry.
// Submit (machine | inline spec, seed, experiment) jobs, stream their
// progress, or fan a sweep of machine.Spec what-if variants across the
// worker pool. Every result is memoized in a content-addressed cache —
// keyed by SHA-256 of (canonical spec JSON, seed, experiment id, code
// version) — with request coalescing, so N identical submissions cost
// one simulation and repeat askers get byte-identical bodies marked
// "X-Cache: hit".
//
// Usage:
//
//	frontier-serve -addr :8080
//	frontier-serve -addr :8080 -jobs 4 -cache-bytes 268435456 -cache-dir /var/cache/frontier
//
//	curl -s localhost:8080/v1/experiments
//	curl -s -d '{"experiment":"fig6","machine":"frontier","seed":42,"quick":true}' localhost:8080/v1/run
//	curl -s -d '{"experiment":"fig6","quick":true,"sweep":"linkRate: 1.25e10..2.5e10 step 6.25e9"}' localhost:8080/v1/sweep
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"time"

	"frontiersim/internal/campaign"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "max simulations running concurrently")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "in-memory result-cache budget in bytes (0 = unbounded)")
	cacheDir := flag.String("cache-dir", "", "persist results to this directory (survives restarts; empty = memory only)")
	maxSweep := flag.Int("max-sweep", 256, "max variants in one sweep request")
	solutionBytes := flag.Int64("solution-cache-bytes", 0, "solver solution-cache budget in bytes shared across simulations (0 = 256 MiB default)")
	pricingEntries := flag.Int("pricing-cache-entries", 0, "per-simulation placement-signature pricing cache for campaign experiments: 0 = unbounded (default), N > 0 = LRU entry cap, -1 = disabled; campaign results are identical at any setting")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "frontier-serve: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		return 2
	}

	srv, err := campaign.New(campaign.Config{
		Jobs:               *jobs,
		CacheBytes:         *cacheBytes,
		CacheDir:           *cacheDir,
		MaxSweepVariants:   *maxSweep,
		SolutionCacheBytes: *solutionBytes,
		PricingEntries:     *pricingEntries,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "frontier-serve:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "frontier-serve:", err)
		return 1
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "frontier-serve: listening on http://%s (jobs=%d, cache=%dB, dir=%q)\n",
		ln.Addr(), *jobs, *cacheBytes, *cacheDir)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "frontier-serve:", err)
			return 1
		}
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "frontier-serve: shutdown:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "frontier-serve: drained, bye")
	}
	return 0
}
