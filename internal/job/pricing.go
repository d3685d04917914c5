package job

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"frontiersim/internal/units"
)

// This file is the placement-signature pricing cache. Binding a program
// prices every phase through mpi.Comm, and every quantity that pricing
// reads — Size, PPN, GroupsSpanned, rank-to-node equality for SendRecv,
// and the sub-communicators Split derives from rank indices — is
// invariant under relabeling the placement's nodes by order of
// appearance and its dragonfly groups by first appearance. Two
// placements with the same relabeled per-node group sequence therefore
// price to bit-identical per-phase times, and a campaign's thousands of
// same-class jobs landing on isomorphic placements collapse to one
// pricing pass.
//
// The counterexample that keeps the signature honest: group sequences
// [0,0,1] and [0,1,1] have the same per-group occupancy multiset, but
// their rank-0 contiguous subgroups span different group counts, so a
// sorted occupancy shape alone is NOT a sound key — the signature hashes
// the full relabeled sequence.

// Sig is a content signature used as a pricing-cache key component.
type Sig [sha256.Size]byte

// ProgramSignature hashes exactly the program content pricing reads:
// the node/rank shape and every per-phase work quantity, in order.
// Iterations is deliberately excluded — the cached entry stores the
// setup and single-pass loop sums, and Bind rebuilds Total with the
// job's own iteration count using the identical floating-point
// expression — as are Name and Class, which never enter a price.
func ProgramSignature(p *Program) Sig {
	h := sha256.New()
	var buf [1024]byte
	n := 0
	flush := func() {
		h.Write(buf[:n])
		n = 0
	}
	w := func(v uint64) {
		if n+8 > len(buf) {
			flush()
		}
		binary.LittleEndian.PutUint64(buf[n:], v)
		n += 8
	}
	wi := func(v int) { w(uint64(v)) }
	wf := func(v float64) { w(math.Float64bits(v)) }
	wi(p.Nodes)
	wi(p.PPN)
	section := func(tag int, phases []Phase) {
		wi(tag)
		wi(len(phases))
		for _, ph := range phases {
			wi(int(ph.Kind))
			wf(ph.Flops)
			wf(float64(ph.Bytes))
			wi(int(ph.Precision))
			m := 0
			if ph.MatrixCores {
				m = 1
			}
			wi(m)
			wf(ph.Efficiency)
			wi(int(ph.Op))
			wf(float64(ph.Payload))
			wi(ph.Group.Size)
			wi(ph.Group.Stride)
			wi(ph.PeerStride)
			wf(float64(ph.Read))
			wf(float64(ph.Write))
		}
	}
	section(1, p.Setup)
	section(2, p.Loop)
	flush()
	var s Sig
	h.Sum(s[:0])
	return s
}

// PlacementSignature canonicalizes a placement for pricing: the
// per-node dragonfly-group sequence with groups relabeled by first
// appearance (the same Fabric.NodeGroup mapping mpi.NewComm uses), plus
// the node count. Placements that are isomorphic under group relabeling
// share a signature; placements whose ranks interleave groups
// differently (different comm-group layout) do not. ok is false when a
// node is outside the machine or listed twice — callers fall back to the
// uncached path so Bind surfaces its canonical error.
//
// The sequence is hashed as run-length (label, count) pairs rather than
// one word per node. Runs are maximal, so the encoding is injective on
// the relabeled sequence and keys exactly the same equivalence classes,
// while a packed or spread placement costs a handful of words instead
// of thousands.
func (e *Env) PlacementSignature(nodes []int) (Sig, bool) {
	var s Sig
	f := e.Fabric
	total := f.Cfg.ComputeNodes()
	labels := make([]int32, f.Cfg.ComputeGroups+f.Cfg.IOGroups+f.Cfg.MgmtGroups)
	for i := range labels {
		labels[i] = -1
	}
	seen := make([]uint64, (total+63)/64)
	next := int32(0)
	h := sha256.New()
	var buf [1024]byte
	n := 0
	put := func(v uint32) {
		if n+4 > len(buf) {
			h.Write(buf[:n])
			n = 0
		}
		binary.LittleEndian.PutUint32(buf[n:], v)
		n += 4
	}
	put(uint32(len(nodes)))
	run, count := int32(-1), uint32(0)
	for _, node := range nodes {
		if node < 0 || node >= total {
			return s, false
		}
		bit := uint64(1) << (node & 63)
		if seen[node>>6]&bit != 0 {
			return s, false
		}
		seen[node>>6] |= bit
		g := f.NodeGroup(node)
		if g < 0 || g >= len(labels) {
			return s, false
		}
		if labels[g] < 0 {
			labels[g] = next
			next++
		}
		if labels[g] != run {
			if count > 0 {
				put(uint32(run))
				put(count)
			}
			run, count = labels[g], 0
		}
		count++
	}
	if count > 0 {
		put(uint32(run))
		put(count)
	}
	h.Write(buf[:n])
	h.Sum(s[:0])
	return s, true
}

// pricingKey identifies one priced (program, placement, machine)
// combination.
type pricingKey struct {
	env   string
	prog  Sig
	place Sig
}

// pricedProgram is the machine-dependent, iteration-independent part of
// a Bound: per-phase times and their sums as Bind computed them.
type pricedProgram struct {
	setupTimes, loopTimes []units.Seconds
	setupSum, loopSum     units.Seconds
}

// total is a Bound's Total for p: setup plus p.Iterations loop passes,
// the one expression every cold bind, hit and estimate evaluates.
func (pr *pricedProgram) total(p *Program) units.Seconds {
	return pr.setupSum + units.Seconds(p.Iterations)*pr.loopSum
}

// spreadKey names one nominal spread placement: its shape depends only
// on the machine and the node count.
type spreadKey struct {
	env   string
	nodes int
}

// PricingCache memoizes Bind's per-phase pricing keyed by (program
// signature, placement signature, machine hash). A hit rebuilds the
// Bound from the stored times without constructing an mpi.Comm; the
// result is bit-identical to a cold Bind because the stored values ARE
// a cold Bind's values and Total is recomputed with the same
// expression. Safe for concurrent use; a nil *PricingCache is a valid
// always-miss cache.
//
// The cache also memoizes the PlacementSignature of each nominal spread
// placement Estimate quotes against, keyed by (CacheKey, node count).
// The memo holds the real signature, not a stand-in, so an estimate and
// a granted placement of the same shape meet on one entry; it is not a
// pricing lookup and moves neither counter. It holds one signature per
// node count a machine has been asked to estimate, and is never evicted.
type PricingCache struct {
	mu      sync.Mutex
	max     int
	entries map[pricingKey]*list.Element
	lru     list.List // of cacheSlot, front = most recent
	hits    uint64
	misses  uint64
	spread  map[spreadKey]Sig // made by the first estimate
}

type cacheSlot struct {
	key pricingKey
	val pricedProgram
}

// NewPricingCache returns a cache bounded to maxEntries priced
// programs; maxEntries <= 0 means unbounded, which keeps the reported
// hit rate a pure function of the job stream (no eviction noise). An
// entry costs a few hundred bytes, so even a year-scale campaign's
// working set is small.
func NewPricingCache(maxEntries int) *PricingCache {
	return &PricingCache{
		max:     maxEntries,
		entries: make(map[pricingKey]*list.Element),
	}
}

// spreadSignature returns e.PlacementSignature(e.SpreadPlacement(n)),
// computed once per (e.CacheKey, n). ok is false when the placement has
// no signature; nothing is memoized then. The signature is hashed
// outside the lock: racing callers compute the same value.
func (c *PricingCache) spreadSignature(e *Env, n int) (Sig, bool) {
	k := spreadKey{env: e.CacheKey, nodes: n}
	c.mu.Lock()
	s, ok := c.spread[k]
	c.mu.Unlock()
	if ok {
		return s, true
	}
	if s, ok = e.PlacementSignature(e.SpreadPlacement(n)); !ok {
		return s, false
	}
	c.mu.Lock()
	if c.spread == nil {
		c.spread = make(map[spreadKey]Sig)
	}
	c.spread[k] = s
	c.mu.Unlock()
	return s, true
}

// lookup returns the priced program for a key, if present.
func (c *PricingCache) lookup(key pricingKey) (pricedProgram, bool) {
	if c == nil {
		return pricedProgram{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return pricedProgram{}, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(cacheSlot).val, true
}

// store inserts a priced program, evicting the least recently used
// entry when the cache is bounded and full.
func (c *PricingCache) store(key pricingKey, val pricedProgram) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(cacheSlot{key: key, val: val})
	if c.max > 0 && len(c.entries) > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(cacheSlot).key)
	}
}

// Stats returns the cumulative hit and miss counts.
func (c *PricingCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (c *PricingCache) HitRate() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Len returns the number of cached priced programs.
func (c *PricingCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
