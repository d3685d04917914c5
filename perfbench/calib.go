package main

import (
	"math"
	"syscall"
	"time"
)

// The shared host a benchmark runs on changes speed from one second to
// the next: other guests contend for the physical cores, their caches and
// memory bandwidth, and that stretches CPU time as well as wall-clock
// time, by a tenth within seconds and by a quarter or more between runs a
// few minutes apart. A time measured on its own drifts with the host.
// Every workload therefore interleaves short slices of a fixed
// calibration kernel with a round's work, a few tenths of a second
// apart, and reports work_ref: the round's process CPU time less the
// slices', in units of the mean slice. The kernel is the benchmark's own
// code, so a change to the program moves the numerator only, while the
// host's speed during the round moves both.

const (
	calibEvents = 1 << 14 // calendar entries, 256 KiB
	calibCells  = 1 << 16 // state cells, 512 KiB
	calibSteps  = 100_000 // about 20 ms on a 2 GHz Xeon
)

// The sizes were chosen by timing kernels of 32 KiB, 512 KiB and 4 MiB of
// cells between the rounds of year-campaign and fabric-census on a
// shared 2-vCPU Xeon VM: the 512 KiB kernel's time tracked both
// workloads' round times most closely as the host's speed changed
// (correlation 0.94 and 0.79 of the logarithms over 14 rounds each),
// while the 4 MiB one, bound by memory, swung more than either.

type calibEvent struct {
	at   float64
	cell uint32
}

// calibState is the kernel's memory, allocated once per process so that
// a slice allocates nothing and leaves the collector's work unchanged.
type calibState struct {
	start, q []calibEvent
	cells    []float64
}

var calib = func() *calibState {
	c := &calibState{start: make([]calibEvent, calibEvents), q: make([]calibEvent, calibEvents), cells: make([]float64, calibCells)}
	x := uint64(1)
	for i := range c.start {
		x = xorshift(x)
		c.start[i] = calibEvent{at: float64(i) / calibEvents, cell: uint32(x % calibCells)}
	}
	return c
}()

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// kernel runs one slice: a hold-model discrete-event loop of the
// simulator's own kind over a binary-heap calendar, with a random read
// and write of the state cells, a logarithm and a comparison chain per
// event. It starts from the same calendar and seed every time, so every
// slice does the same work.
func (c *calibState) kernel() float64 {
	copy(c.q, c.start) // sorted by time, so already a heap
	x := uint64(88172645463325252)
	var acc float64
	for i := 0; i < calibSteps; i++ {
		e := c.q[0]
		v := c.cells[e.cell]*0.5 + e.at
		c.cells[e.cell] = v
		acc += v
		x = xorshift(x)
		u := (float64(x>>11) + 0.5) / (1 << 53)
		c.q[0] = calibEvent{at: e.at - math.Log(u), cell: uint32(x>>20) % calibCells}
		c.down()
	}
	return acc
}

// down restores the heap order from the root.
func (c *calibState) down() {
	q, i := c.q, 0
	for {
		l := 2*i + 1
		if l >= len(q) {
			return
		}
		m := l
		if r := l + 1; r < len(q) && q[r].at < q[l].at {
			m = r
		}
		if q[i].at <= q[m].at {
			return
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// calibSink keeps the kernel's result live.
var calibSink float64

// pacer interleaves calibration slices with one round's work. The round
// calls slice at its start and end and tick as it goes; tick runs a slice
// once slicesEvery has passed on the wall clock since the last one.
type pacer struct {
	last   time.Time
	slices []time.Duration // process CPU time of each slice
	wall   time.Duration   // wall-clock time of all slices
}

// slicesEvery is the pacing of every workload: about a tenth of a
// round's time goes to the kernel.
const slicesEvery = 200 * time.Millisecond

func newPacer() *pacer { return &pacer{last: time.Now()} }

func (p *pacer) tick() {
	if time.Since(p.last) >= slicesEvery {
		p.slice()
	}
}

func (p *pacer) slice() {
	w, t := time.Now(), procCPU()
	calibSink += calib.kernel()
	p.slices = append(p.slices, procCPU()-t)
	p.last = time.Now()
	p.wall += p.last.Sub(w)
}

func (p *pacer) total() time.Duration {
	var sum time.Duration
	for _, s := range p.slices {
		sum += s
	}
	return sum
}

// meanSlice is the mean process CPU time of a slice, the host's speed
// averaged over the round.
func (p *pacer) meanSlice() time.Duration {
	return p.total() / time.Duration(len(p.slices))
}

// ref returns the round's own work, its process CPU time roundCPU less
// the slices', in units of the mean slice.
func (p *pacer) ref(roundCPU time.Duration) float64 {
	return float64(roundCPU-p.total()) / float64(p.meanSlice())
}

// procCPU returns the CPU time the whole process has used, every thread
// included: the collector's background workers and, for the server, the
// handlers and the worker pool. It leaves out time the hypervisor steals
// from this VM's vCPUs.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
