package network

import (
	"fmt"
	"math"
	"sync"

	"frontiersim/internal/fabric"
)

// Solver is a reusable water-filling solver arena. A zero-value Solver is
// ready to use; each call to Solve grows the internal buffers as needed
// and subsequent calls reuse them, so repeated solves within one
// experiment are allocation-free in steady state — and even a cold solve
// costs only a dozen slice allocations, because all per-link and
// per-subflow adjacency lives in flat CSR arrays rather than per-element
// slices. A Solver is not safe for concurrent use; the package-level
// Solve wrapper draws Solvers from a pool and is.
//
// The arena replaces the per-call map from fabric link id to local index
// with an epoch-stamped dense slice: fabric link ids are dense ints, so a
// versioned slice gives O(1) lookup with no clearing between solves — a
// slot is valid only when its stamp matches the current solve's epoch.
// Stamp and index share one 8-byte slot, so a lookup touches one cache
// line, not two.
//
// A Solver also remembers the problem it last built (fabric, demand set,
// CSR adjacency, degree snapshot), which is what SolveDelta warm-starts
// from after fabric link-state changes.
type Solver struct {
	// slots[lid].idx is the arena index of fabric link lid, valid iff
	// slots[lid].stamp == epoch. Slots are not cleared between solves.
	slots []linkSlot
	epoch uint32

	// Per-link state, indexed by arena link index. Demand-cap
	// pseudo-links live in the same space as real fabric links.
	linkCap    []float64
	linkUsed   []float64
	linkCount  []int32 // unfrozen subflows crossing the link
	linkCount0 []int32 // degree snapshot taken at build time, for re-fills
	linkStart  []int32 // CSR offsets into linkSubs (len nlinks+1)
	linkSubs   []int32 // subflow indices, grouped by link
	cursor     []int32 // scratch fill cursor for the CSR pass

	// Per-subflow state, indexed by subflow index. Subflows are numbered
	// demand by demand, path by path, so demand d's are contiguous.
	subDemand []int32
	subStart  []int32 // CSR offsets into subLinks (len nsubs+1)
	subLinks  []int32 // arena link indices, grouped by subflow, cap pseudo-link last
	// subRate and demRate hold the fill's per-subflow and per-demand
	// rates in dense arrays; fill copies them onto the demands once it
	// completes, so the freeze loop never chases a Demand pointer. A
	// subflow is frozen once its rate is set: rates are never negative,
	// so unfrozen subflows hold -1.
	subRate []float64
	demRate []float64

	heap []boundEntry

	// Warm-start tracking for SolveDelta: the fabric and demand set the
	// CSR currently encodes, and the fabric state epoch it was built
	// against. built is false until a solve succeeds end to end.
	built       bool
	lastFabric  *fabric.Fabric
	lastEpoch   uint64
	lastDemands []*Demand
}

// linkSlot maps one fabric link to its arena index for one solve.
type linkSlot struct {
	stamp uint32
	idx   int32
}

// NewSolver returns an empty solver arena.
func NewSolver() *Solver { return &Solver{} }

// solverPool backs the package-level Solve wrapper so concurrent callers
// each get a private arena and steady-state calls stay allocation-free.
var solverPool = sync.Pool{New: func() any { return NewSolver() }}

// reset prepares the arena for a solve over a fabric with numLinks links.
func (s *Solver) reset(numLinks int) {
	if len(s.slots) < numLinks {
		s.slots = make([]linkSlot, numLinks)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // stamp wrap: invalidate every slot once per 2^32 solves
		for i := range s.slots {
			s.slots[i].stamp = 0
		}
		s.epoch = 1
	}
}

// grow returns buf resized to n, reusing its backing array when possible.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// reserve returns buf emptied with room for n elements, so appending up
// to n never reallocates.
func reserve[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:0]
	}
	return make([]T, 0, n)
}

// zeroDemandRates clears every demand's allocation so error paths never
// leave the set half-written: before the fix a mid-solve error (say a
// demand routed over a down link) left demands before the failure point
// zeroed and demands after it still carrying the previous solve's rates.
func zeroDemandRates(demands []*Demand) {
	for _, d := range demands {
		d.Rate = 0
		for i := range d.SubRates {
			d.SubRates[i] = 0
		}
	}
}

// Solve computes the max-min fair allocation for the demands on fabric f.
// Results are byte-identical to the pre-arena package-level Solve: the
// CSR arena changes where scratch state lives, not the order of any
// floating-point operation (TestSolverMatchesReference pins this against
// a verbatim copy of the original implementation).
//
// On error every demand is left with Rate 0 and all SubRates zeroed.
func (s *Solver) Solve(f *fabric.Fabric, demands []*Demand) error {
	s.built = false
	s.reset(len(f.Links))
	if err := s.build(f, demands); err != nil {
		zeroDemandRates(demands)
		return err
	}
	if err := s.fill(demands); err != nil {
		zeroDemandRates(demands)
		return err
	}
	s.built = true
	s.lastFabric = f
	s.lastEpoch = f.StateEpoch()
	s.lastDemands = append(s.lastDemands[:0], demands...)
	return nil
}

// SolveDelta re-solves the demand set most recently solved on this
// Solver, reusing the built CSR adjacency instead of rebuilding it.
// changed lists the fabric link ids whose state may have changed since
// that solve; nil means "ask the fabric", via the change journal that
// f.ChangedSince keeps between state epochs.
//
// Three outcomes, all byte-identical to a cold Solve on the current
// fabric state:
//
//   - No changed link is part of the problem: the previous solution is
//     still exact, the demands already hold it verbatim, and SolveDelta
//     returns without touching the heap at all.
//   - A changed problem link is up: its capacity is refreshed and the
//     water-filling fill pass re-runs over the preserved CSR arrays.
//     The fill performs the same floating-point operations in the same
//     order as a cold solve of the identical problem, so the result is
//     bit-for-bit what Solve would produce.
//   - A changed problem link is down: the demand set no longer routes,
//     and SolveDelta falls back to a cold Solve to surface the canonical
//     "routed over down link" error (zeroing all demands).
//
// The caller must not have mutated the demands' Src/Dst/Cap/Paths since
// the previous solve; SolveDelta falls back to a cold Solve whenever the
// fabric or demand identity doesn't match what was built.
func (s *Solver) SolveDelta(f *fabric.Fabric, demands []*Demand, changed []int) error {
	if !s.built || s.lastFabric != f || !sameDemands(s.lastDemands, demands) {
		return s.Solve(f, demands)
	}
	if changed == nil {
		links, ok := f.ChangedSince(s.lastEpoch)
		if !ok {
			// Journal overflowed since the build; no cheap answer to
			// "what changed", so rebuild from scratch.
			return s.Solve(f, demands)
		}
		changed = links
	}
	dirty := false
	for _, lid := range changed {
		if lid < 0 || lid >= len(s.slots) || s.slots[lid].stamp != s.epoch {
			continue // link carries no subflow of this problem
		}
		c, up := f.LinkCapUp(lid)
		if !up {
			return s.Solve(f, demands)
		}
		// Conservative: a problem link that bounced (failed and was
		// restored) is treated as dirty even though its capacity is
		// unchanged today — the re-fill is bit-identical either way, and
		// future cap-mutating fabric events stay correct for free.
		s.linkCap[s.slots[lid].idx] = c
		dirty = true
	}
	s.lastEpoch = f.StateEpoch()
	if !dirty {
		return nil
	}
	if err := s.fill(demands); err != nil {
		s.built = false
		zeroDemandRates(demands)
		return err
	}
	return nil
}

// sameDemands reports whether the two demand sets are the identical
// sequence of Demand objects.
func sameDemands(a, b []*Demand) bool {
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

// build runs the two construction passes. The first validates demands,
// assigns arena link indices in first-encounter order (pseudo-links
// interleave after each capped path, exactly as the original append
// order did), counts per-link degrees and records each subflow's arena
// links. The second scatters the subflows into the link→subflow CSR
// array, reading only that record. On success linkCount0 snapshots the
// degrees so fill can re-run without rebuilding.
//
// Every demand's SubRates is sized to its paths first (sizeSubRates).
func (s *Solver) build(f *fabric.Fabric, demands []*Demand) error {
	sizeSubRates(demands)
	// Size the appended arrays for this demand set up front: a fresh
	// Solver building a census shift would otherwise regrow them by
	// doubling, copying and discarding twice what they end up holding.
	nsubs, nrefs, npseudo := 0, 0, 0
	for _, d := range demands {
		nsubs += len(d.Paths)
		for _, p := range d.Paths {
			nrefs += len(p)
		}
		if d.Cap > 0 {
			npseudo += len(d.Paths)
		}
	}
	s.subStart = reserve(s.subStart, nsubs+1)
	s.subDemand = reserve(s.subDemand, nsubs)
	s.subLinks = reserve(s.subLinks, nrefs+npseudo)
	maxLinks := min(nrefs, len(f.Links)) + npseudo
	s.linkCap = reserve(s.linkCap, maxLinks)
	s.linkCount = reserve(s.linkCount, maxLinks)
	for di, d := range demands {
		if len(d.Paths) == 0 {
			return fmt.Errorf("network: demand %d (%d->%d) has no paths", di, d.Src, d.Dst)
		}
		for _, p := range d.Paths {
			s.subStart = append(s.subStart, int32(len(s.subLinks)))
			for _, lid := range p {
				sl := &s.slots[lid]
				if sl.stamp != s.epoch {
					c, up := f.LinkCapUp(lid)
					if !up {
						return fmt.Errorf("network: demand %d routed over down link %d", di, lid)
					}
					sl.idx = int32(len(s.linkCap))
					sl.stamp = s.epoch
					s.linkCap = append(s.linkCap, c)
					s.linkCount = append(s.linkCount, 0)
				}
				s.linkCount[sl.idx]++
				s.subLinks = append(s.subLinks, sl.idx)
			}
			if d.Cap > 0 {
				// Pseudo-link private to this subflow, enforcing the
				// demand cap split evenly across its paths.
				s.subLinks = append(s.subLinks, int32(len(s.linkCap)))
				s.linkCap = append(s.linkCap, d.Cap/float64(len(d.Paths)))
				s.linkCount = append(s.linkCount, 1)
			}
			s.subDemand = append(s.subDemand, int32(di))
		}
	}
	s.subStart = append(s.subStart, int32(len(s.subLinks)))
	nlinks := len(s.linkCap)

	// Prefix sums over the degrees give the CSR offsets; the scatter
	// visits subflows in build order, so every link's subflow list ends
	// up in exactly the order the original built by appends.
	s.linkStart = grow(s.linkStart, nlinks+1)
	s.cursor = grow(s.cursor, nlinks)
	total := int32(0)
	for li := 0; li < nlinks; li++ {
		s.linkStart[li] = total
		s.cursor[li] = total
		total += s.linkCount[li]
	}
	s.linkStart[nlinks] = total
	s.linkSubs = grow(s.linkSubs, int(total))
	for si := 0; si < nsubs; si++ {
		for _, li := range s.subLinks[s.subStart[si]:s.subStart[si+1]] {
			s.linkSubs[s.cursor[li]] = int32(si)
			s.cursor[li]++
		}
	}

	s.linkCount0 = grow(s.linkCount0, nlinks)
	copy(s.linkCount0, s.linkCount)
	return nil
}

// sizeSubRates sets every demand's SubRates to one slot per path. A
// slice with the capacity is reused; the rest are carved from one slab
// per demand set, as full-capacity slices, instead of one allocation per
// demand: a census shift has ~38k fresh demands.
func sizeSubRates(demands []*Demand) {
	short := 0
	for _, d := range demands {
		if cap(d.SubRates) < len(d.Paths) {
			short += len(d.Paths)
		}
	}
	var slab []float64
	if short > 0 {
		slab = make([]float64, short)
	}
	for _, d := range demands {
		n := len(d.Paths)
		if cap(d.SubRates) >= n {
			d.SubRates = d.SubRates[:n]
		} else {
			d.SubRates, slab = slab[:n:n], slab[n:]
		}
	}
}

// fill runs the water-filling freeze loop over the built CSR arrays:
// restore per-link degrees from the build-time snapshot, zero usage and
// the dense rates, repeatedly freeze the subflows crossing the tightest
// bottleneck, then write the rates onto the demands. It writes no demand
// when it fails. Both Solve and SolveDelta funnel through here, so a
// re-fill after a delta performs exactly the floating-point operation
// sequence a cold solve of the same problem would.
func (s *Solver) fill(demands []*Demand) error {
	nlinks := len(s.linkCap)
	nsubs := len(s.subDemand)

	s.linkCount = grow(s.linkCount, nlinks)
	copy(s.linkCount, s.linkCount0[:nlinks])
	s.linkUsed = grow(s.linkUsed, nlinks)
	for li := range s.linkUsed {
		s.linkUsed[li] = 0
	}
	s.subRate = grow(s.subRate, nsubs)
	for si := range s.subRate {
		s.subRate[si] = -1
	}
	s.demRate = grow(s.demRate, len(demands))
	for di := range s.demRate {
		s.demRate[di] = 0
	}

	// Lazy heap of (bound, link): bounds only grow as flows freeze, so a
	// stale entry is re-pushed with its recomputed bound.
	bound := func(li int32) float64 {
		if s.linkCount[li] == 0 {
			return math.Inf(1)
		}
		b := (s.linkCap[li] - s.linkUsed[li]) / float64(s.linkCount[li])
		if b < 0 {
			b = 0
		}
		return b
	}
	// Every pop pushes at most one entry back, so the heap never holds
	// more than one entry per link.
	s.heap = reserve(s.heap, nlinks)
	for li := 0; li < nlinks; li++ {
		s.heapPush(boundEntry{bound(int32(li)), int32(li)})
	}

	remaining := nsubs
	for remaining > 0 && len(s.heap) > 0 {
		e := s.heapPop()
		cur := bound(e.link)
		if s.linkCount[e.link] == 0 {
			continue
		}
		if cur > e.bound+1e-15 {
			s.heapPush(boundEntry{cur, e.link})
			continue
		}
		level := cur
		// Freeze every unfrozen subflow crossing the bottleneck.
		for _, fsi := range s.linkSubs[s.linkStart[e.link]:s.linkStart[e.link+1]] {
			if s.subRate[fsi] >= 0 {
				continue
			}
			s.subRate[fsi] = level
			remaining--
			s.demRate[s.subDemand[fsi]] += level
			for _, li := range s.subLinks[s.subStart[fsi]:s.subStart[fsi+1]] {
				s.linkUsed[li] += level
				s.linkCount[li]--
			}
		}
		// Neighbouring links got new bounds; lazy revalidation handles
		// them when popped, but the bottleneck itself is done.
	}
	if remaining > 0 {
		return fmt.Errorf("network: solver left %d subflows unallocated", remaining)
	}
	si := 0
	for di, d := range demands {
		n := len(d.Paths)
		d.Rate = s.demRate[di]
		copy(d.SubRates, s.subRate[si:si+n])
		si += n
	}
	return nil
}

type boundEntry struct {
	bound float64
	link  int32
}

// heapPush and heapPop are container/heap's push/pop specialised to
// []boundEntry: the sift loops are verbatim ports of heap.up/heap.down,
// so pop order — including ties — matches the pre-arena solver exactly,
// without boxing every entry through an interface.
func (s *Solver) heapPush(e boundEntry) {
	s.heap = append(s.heap, e)
	h := s.heap
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if h[j].bound >= h[i].bound {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (s *Solver) heapPop() boundEntry {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	// Sift the new root down over h[:n].
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].bound < h[j1].bound {
			j = j2
		}
		if h[j].bound >= h[i].bound {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e := h[n]
	s.heap = h[:n]
	return e
}
