package fabric

import (
	"math/rand"
	"slices"
	"testing"
)

// A route set built before a link failure goes stale: the failure and
// the restore each advance the state epoch by one — what epoch-keyed
// consumers (SolutionCache, SolveDelta) check — the journal names the
// link, and routes rebuilt at the new epoch avoid it.
func TestPathCacheInvalidatedByLinkState(t *testing.T) {
	f := small(t)
	ps, err := f.AdaptivePaths(0, 40, 2, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	failed := ps.Paths[0][1] // a fabric link (index 0 is the injection link)
	before := f.StateEpoch()
	f.FailLink(failed)
	if got := f.StateEpoch(); got != before+1 {
		t.Fatalf("FailLink moved the epoch %d -> %d, want +1", before, got)
	}
	if links, ok := f.ChangedSince(before); !ok || !slices.Contains(links, failed) {
		t.Errorf("ChangedSince(%d) = %v, %v; want failed link %d", before, links, ok, failed)
	}
	fresh, err := f.AdaptivePaths(0, 40, 2, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fresh.Paths {
		if slices.Contains(p, failed) {
			t.Fatalf("rebuilt path still crosses failed link %d", failed)
		}
	}
	before = f.StateEpoch()
	f.RestoreLink(failed)
	if got := f.StateEpoch(); got != before+1 {
		t.Errorf("RestoreLink moved the epoch %d -> %d, want +1", before, got)
	}
}

// A switch failure downs many links but is one transition: the state
// epoch advances by exactly one.
func TestPathCacheSwitchFailureAdvancesEpoch(t *testing.T) {
	f := small(t)
	before := f.StateEpoch()
	f.FailSwitch(5)
	if got := f.StateEpoch(); got != before+1 {
		t.Errorf("FailSwitch moved the epoch %d -> %d, want +1", before, got)
	}
}

// The change journal answers "which links changed since epoch e" for
// the delta solver. Fail/restore transitions are recorded per link,
// half-open on the left: changes at epochs > e are reported.
func TestChangedSinceReportsTransitions(t *testing.T) {
	f := small(t)
	e0 := f.StateEpoch()
	if links, ok := f.ChangedSince(e0); !ok || links != nil {
		t.Fatalf("no changes yet: got %v, %v", links, ok)
	}
	f.FailLink(3)
	e1 := f.StateEpoch()
	f.RestoreLink(3)
	f.FailLink(7)
	links, ok := f.ChangedSince(e0)
	if !ok {
		t.Fatal("journal should cover the whole window")
	}
	want := []int{3, 3, 7}
	if len(links) != len(want) {
		t.Fatalf("changed = %v, want %v", links, want)
	}
	for i := range want {
		if links[i] != want[i] {
			t.Fatalf("changed = %v, want %v", links, want)
		}
	}
	// A later visitor sees only the tail of the journal.
	links, ok = f.ChangedSince(e1)
	if !ok || len(links) != 2 || links[0] != 3 || links[1] != 7 {
		t.Fatalf("tail query = %v, %v, want [3 7] true", links, ok)
	}
	// Current-epoch queries answer "nothing changed".
	if links, ok = f.ChangedSince(f.StateEpoch()); !ok || links != nil {
		t.Fatalf("current-epoch query = %v, %v, want nil true", links, ok)
	}
}

// FailSwitch downs every link touching the switch in one epoch bump;
// the journal must list each of them.
func TestChangedSinceSwitchFailure(t *testing.T) {
	f := small(t)
	e0 := f.StateEpoch()
	f.FailSwitch(0)
	links, ok := f.ChangedSince(e0)
	if !ok || len(links) == 0 {
		t.Fatalf("switch failure journaled %v, %v", links, ok)
	}
	logged := make(map[int]bool, len(links))
	for _, lid := range links {
		if f.Links[lid].Up {
			t.Errorf("journaled link %d is still up", lid)
		}
		logged[lid] = true
	}
	for i := range f.Links {
		if !f.Links[i].Up && !logged[i] {
			t.Errorf("down link %d missing from the journal", i)
		}
	}
}

// Overflow drops the whole history: older visitors get ok=false (assume
// everything changed), while visitors arriving after the drop resume
// incremental service.
func TestChangedSinceOverflow(t *testing.T) {
	f := small(t)
	e0 := f.StateEpoch()
	for i := 0; i <= maxStateLog; i++ {
		f.FailLink(1)
		f.RestoreLink(1)
	}
	if _, ok := f.ChangedSince(e0); ok {
		t.Fatal("pre-overflow epoch should answer ok=false")
	}
	e1 := f.StateEpoch()
	f.FailLink(2)
	links, ok := f.ChangedSince(e1)
	if !ok || len(links) != 1 || links[0] != 2 {
		t.Fatalf("post-overflow query = %v, %v, want [2] true", links, ok)
	}
	f.RestoreLink(2)
}

// NodeEndpoint maps (node, rank-ish index) onto the node's NICs,
// wrapping the index round-robin.
func TestNodeEndpoint(t *testing.T) {
	f := small(t)
	per := f.Cfg.NICsPerNode
	for n := 0; n < 3; n++ {
		for i := 0; i < 2*per; i++ {
			want := n*per + i%per
			if got := f.NodeEndpoint(n, i); got != want {
				t.Errorf("NodeEndpoint(%d, %d) = %d, want %d", n, i, got, want)
			}
		}
	}
}
