package fabric

import (
	"fmt"
	"math/rand"
)

// PathSet is the set of routes adaptive routing spreads one traffic pair
// across: the minimal route plus zero or more Valiant non-minimal routes.
// Slingshot routes per packet, so at the flow level a pair's traffic
// occupies all of these paths simultaneously and the bandwidth a pair
// achieves is the sum over the set.
//
// Storage comes from a PathArena: every row of Paths aliases the arena's
// flat link chunk, and Paths itself aliases its row-header chunk. Rows
// and Paths are full-capacity slices — appending to one reallocates
// rather than clobbering its neighbour — but callers must still treat a
// PathSet as immutable once built; cached sets are shared across workers.
type PathSet struct {
	Src, Dst int
	Paths    [][]int
}

// PathArena hands out path-set storage from chunks: a flat []int that
// holds every route's links back to back, and a [][]int of row headers
// over it. A census demand set routes tens of thousands of pairs, and
// drawing their path sets from one arena costs a few chunk allocations
// instead of two or three per pair. The zero value sizes each chunk for
// exactly one path set, which is what Fabric.AdaptivePaths uses;
// NewPathArena's chunks hold about a thousand. Chunks live as long as any
// path set carved from them. A PathArena is not safe for concurrent use.
type PathArena struct {
	links []int
	rows  [][]int
	chunk int // minimum links per chunk; 0 sizes chunks per path set
}

// pathArenaChunk is NewPathArena's link chunk: 256 KB, about a thousand
// Frontier path sets with four Valiant routes each.
const pathArenaChunk = 1 << 15

// NewPathArena returns an arena for building many path sets.
func NewPathArena() *PathArena { return &PathArena{chunk: pathArenaChunk} }

// reserve makes room in the current chunks for one path set of up to
// nLinks links in nRows routes, starting fresh chunks when they are
// short, so the fill never reallocates mid-set.
func (a *PathArena) reserve(nLinks, nRows int) {
	if cap(a.links)-len(a.links) < nLinks {
		a.links = make([]int, 0, max(nLinks, a.chunk))
	}
	if cap(a.rows)-len(a.rows) < nRows {
		a.rows = make([][]int, 0, max(nRows, a.chunk/8))
	}
}

// cut closes the route whose links start at links[start] as a
// full-capacity row.
func (a *PathArena) cut(start int) {
	end := len(a.links)
	a.rows = append(a.rows, a.links[start:end:end])
}

// seal sets ps.Paths to the rows cut since row first, or leaves it nil
// when there are none.
func (a *PathArena) seal(ps *PathSet, first int) {
	if n := len(a.rows); n > first {
		ps.Paths = a.rows[first:n:n]
	}
}

// containsInt reports membership in a small linear-scan set — the group
// exclusion lists here never exceed 2+nValiant entries, where a slice
// beats a map by an order of magnitude and allocates nothing.
func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// AdaptivePaths builds the path set used by Slingshot's adaptive routing
// for one endpoint pair: within a group (or on a fat tree) routing is
// minimal-only; between dragonfly groups the minimal route is supplemented
// by nValiant Valiant routes through distinct random intermediate groups.
// The set's storage is its own; PathArena.AdaptivePaths builds many sets
// into shared chunks.
func (f *Fabric) AdaptivePaths(src, dst, nValiant int, rng *rand.Rand) (PathSet, error) {
	var a PathArena
	return a.AdaptivePaths(f, src, dst, nValiant, rng)
}

// AdaptivePaths is Fabric.AdaptivePaths with the path set's storage
// carved from the arena. It draws the same rng values in the same order.
func (a *PathArena) AdaptivePaths(f *Fabric, src, dst, nValiant int, rng *rand.Rand) (PathSet, error) {
	ps := PathSet{Src: src, Dst: dst}
	// A minimal route has at most 5 links and a Valiant route 7.
	a.reserve(6+8*max(nValiant, 0), 1+max(nValiant, 0))
	first := len(a.rows)

	start := len(a.links)
	next, minErr := f.appendMinimalPath(a.links, src, dst, rng)
	if minErr == nil {
		a.links = next
		a.cut(start)
	}
	if f.Kind == FatTree {
		if minErr != nil {
			return ps, minErr
		}
		a.seal(&ps, first)
		return ps, nil
	}
	g1, g2 := f.EndpointGroup(src), f.EndpointGroup(dst)
	if g1 == g2 || nValiant <= 0 {
		if minErr != nil {
			return ps, minErr
		}
		a.seal(&ps, first)
		return ps, nil
	}
	total := f.Cfg.TotalGroups()
	if total <= 2 {
		a.seal(&ps, first)
		return ps, nil
	}
	var seenBuf [8]int
	seen := append(seenBuf[:0], g1, g2)
	attempts := 0
	for len(a.rows)-first < 1+nValiant && attempts < 8*nValiant {
		attempts++
		via := rng.Intn(total)
		if containsInt(seen, via) {
			continue
		}
		// Valiant detours stay on compute groups: service groups are
		// not used as intermediates for compute traffic.
		if f.groupClass[via] != ComputeGroup {
			continue
		}
		seen = append(seen, via)
		start := len(a.links)
		next, err := f.appendValiantPath(a.links, src, dst, via, rng)
		if err != nil {
			continue // intermediate group unreachable (failures); try another
		}
		a.links = next
		a.cut(start)
	}
	if len(a.rows) == first {
		return ps, fmt.Errorf("fabric: no usable path %d->%d", src, dst)
	}
	a.seal(&ps, first)
	return ps, nil
}
