// Package profiling wires the standard -cpuprofile/-memprofile flags into
// the simulator's command-line tools, so hot-path work (like the RNG
// seeding tax this repo's PR 3 removed) can be found with `go tool pprof`
// instead of guesswork. See README's "Profiling the simulator" section
// for the workflow.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling (if cpuPath is non-empty) and returns a
// stop function that finishes the CPU profile and, if memPath is
// non-empty, writes a heap profile. Callers must invoke stop on every
// exit path that should produce profiles — typically via an explicit
// call before os.Exit, since os.Exit skips deferred calls.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			runtime.GC() // materialise the final live set
			writeHeap(memPath)
		}
	}, nil
}

// writeHeap writes the heap profile, reporting (not returning) errors:
// profile flushing happens on exit paths where a failed write should not
// change the command's outcome.
func writeHeap(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profiling:", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "profiling:", err)
	}
}
