package fabric

import (
	"math/rand"
	"slices"
	"testing"
)

// usableRef is linkUp's answer computed from the authoritative record:
// the link is up and every switch it touches is healthy.
func usableRef(f *Fabric, id int) bool {
	l := f.Links[id]
	if !l.Up {
		return false
	}
	switch l.Kind {
	case Injection:
		return f.SwitchHealthy[l.To]
	case Ejection:
		return f.SwitchHealthy[l.From]
	default:
		return f.SwitchHealthy[l.From] && f.SwitchHealthy[l.To]
	}
}

// checkLinkTables compares the dense link columns with Links and
// SwitchHealthy, link by link.
func checkLinkTables(t *testing.T, f *Fabric, step string) {
	t.Helper()
	if len(f.linkState) != len(f.Links) || len(f.linkCap) != len(f.Links) {
		t.Fatalf("%s: %d links but %d states and %d caps", step, len(f.Links), len(f.linkState), len(f.linkCap))
	}
	for id, l := range f.Links {
		if got, want := f.linkUp(id), usableRef(f, id); got != want {
			t.Fatalf("%s: link %d (%s %d->%d) usable = %v, reference %v", step, id, l.Kind, l.From, l.To, got, want)
		}
		if c, up := f.LinkCapUp(id); c != l.Cap || up != l.Up {
			t.Fatalf("%s: link %d LinkCapUp = (%v, %v), Link has (%v, %v)", step, id, c, up, l.Cap, l.Up)
		}
	}
}

// After any sequence of link failures, restores and switch failures the
// dense usable table equals the one recomputed from Links and
// SwitchHealthy — including a restored link that touches a failed
// switch, which is up but not usable.
func TestUsableTableMatchesLinks(t *testing.T) {
	clos := SummitClosConfig()
	clos.Leaves, clos.EndpointsPerLeaf = 6, 4
	for _, tc := range []struct {
		name  string
		build func() (*Fabric, error)
	}{
		{"dragonfly", func() (*Fabric, error) { return NewDragonfly(ScaledConfig(6, 8, 4)) }},
		{"clos", func() (*Fabric, error) { return NewClos(clos) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				f, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				checkLinkTables(t, f, "built")
				rng := rand.New(rand.NewSource(seed))
				var failed []int
				for op := 0; op < 200; op++ {
					switch k := rng.Intn(20); {
					case k == 0:
						f.FailSwitch(rng.Intn(f.NumSwitches))
					case k < 10 || len(failed) == 0:
						id := rng.Intn(len(f.Links))
						f.FailLink(id)
						failed = append(failed, id)
					default:
						i := rng.Intn(len(failed))
						f.RestoreLink(failed[i])
						failed = slices.Delete(failed, i, i+1)
					}
					checkLinkTables(t, f, "after op")
				}
			}
		})
	}
}

// Constructors size the link table and its columns exactly: building a
// fabric never grows them.
func TestConstructorsSizeLinkTablesExactly(t *testing.T) {
	builds := []func() (*Fabric, error){
		func() (*Fabric, error) { return NewDragonfly(ScaledConfig(6, 8, 4)) },
		func() (*Fabric, error) { return NewClos(SummitClosConfig()) },
	}
	if !testing.Short() {
		builds = append(builds, func() (*Fabric, error) { return NewDragonfly(FrontierConfig()) })
	}
	for _, build := range builds {
		f, err := build()
		if err != nil {
			t.Fatal(err)
		}
		n := len(f.Links)
		if f.Cfg.Name == FrontierConfig().Name && n != 177340 {
			t.Errorf("Frontier has %d directed links, want 177340", n)
		}
		if cap(f.Links) != n || cap(f.linkState) != n || cap(f.linkCap) != n {
			t.Errorf("%s: %d links in capacities %d/%d/%d", f.Cfg.Name, n, cap(f.Links), cap(f.linkState), cap(f.linkCap))
		}
		if e := f.NumEndpoints; cap(f.endpointSwitch) != e || cap(f.injectLink) != e || cap(f.ejectLink) != e {
			t.Errorf("%s: %d endpoints in capacities %d/%d/%d", f.Cfg.Name, e, cap(f.endpointSwitch), cap(f.injectLink), cap(f.ejectLink))
		}
	}
}

// Path sets drawn from one arena equal Fabric.AdaptivePaths on the same
// rng stream — errors included, on a fabric with failures — and leave
// the stream in the same place.
func TestPathArenaMatchesAdaptivePaths(t *testing.T) {
	f := small(t)
	pick := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		f.FailLink(pick.Intn(len(f.Links)))
	}
	ra, rb := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	arena := NewPathArena()
	errs := 0
	for i := 0; i < 2000; i++ {
		src, dst := pick.Intn(f.NumEndpoints), pick.Intn(f.NumEndpoints)
		valiant := []int{0, 1, 2, 4}[pick.Intn(4)]
		want, wantErr := f.AdaptivePaths(src, dst, valiant, ra)
		got, gotErr := arena.AdaptivePaths(f, src, dst, valiant, rb)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("pair %d->%d: arena error %v, AdaptivePaths error %v", src, dst, gotErr, wantErr)
		}
		if wantErr != nil {
			errs++
			continue
		}
		if got.Src != src || got.Dst != dst || len(got.Paths) != len(want.Paths) {
			t.Fatalf("pair %d->%d: arena %v, AdaptivePaths %v", src, dst, got, want)
		}
		for pi := range want.Paths {
			if !slices.Equal(got.Paths[pi], want.Paths[pi]) {
				t.Fatalf("pair %d->%d path %d: arena %v, AdaptivePaths %v", src, dst, pi, got.Paths[pi], want.Paths[pi])
			}
		}
	}
	if errs == 0 {
		t.Error("no pair failed to route; the failures exercise nothing")
	}
	if a, b := ra.Int63(), rb.Int63(); a != b {
		t.Errorf("rng streams diverged: %d vs %d", a, b)
	}
}

// Rows and path sets carved from one arena are full-capacity slices:
// appending to one reallocates instead of writing into its neighbour.
func TestPathArenaAppendDoesNotClobber(t *testing.T) {
	f := small(t)
	rng := rand.New(rand.NewSource(5))
	arena := NewPathArena()
	var sets []PathSet
	for i := 0; i < 50; i++ {
		ps, err := arena.AdaptivePaths(f, i, f.NumEndpoints-1-i, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, ps)
	}
	snapshot := func() [][][]int {
		var out [][][]int
		for _, ps := range sets {
			var rows [][]int
			for _, p := range ps.Paths {
				rows = append(rows, slices.Clone(p))
			}
			out = append(out, rows)
		}
		return out
	}
	before := snapshot()
	var grown [][]int // the appends' results, kept so they are observed
	for i := range sets {
		ps := &sets[i]
		if cap(ps.Paths) != len(ps.Paths) {
			t.Fatalf("set %d: Paths has spare capacity %d > %d", i, cap(ps.Paths), len(ps.Paths))
		}
		for pi, p := range ps.Paths {
			if cap(p) != len(p) {
				t.Fatalf("set %d row %d: spare capacity %d > %d", i, pi, cap(p), len(p))
			}
			grown = append(grown, append(p, -1, -1))
		}
		grown = append(grown, append(ps.Paths, []int{-1})[len(ps.Paths)])
	}
	after := snapshot()
	if len(grown) == 0 {
		t.Fatal("no path to append to")
	}
	for i := range before {
		for pi := range before[i] {
			if !slices.Equal(before[i][pi], after[i][pi]) {
				t.Fatalf("set %d row %d changed from %v to %v", i, pi, before[i][pi], after[i][pi])
			}
		}
	}
}

// NodeGroup reads the dense node→group table filled at construction.
// It must give EndpointGroup's answer for every compute node's first
// NIC, on each topology, and keep giving it after switches and links
// fail: failures never move a node to another group.
func TestNodeGroupMatchesEndpointGroup(t *testing.T) {
	check := func(name string, f *Fabric) {
		t.Helper()
		n := f.Cfg.ComputeNodes()
		for node := 0; node < n; node++ {
			if got, want := f.NodeGroup(node), f.EndpointGroup(f.NodeEndpoint(node, 0)); got != want {
				t.Fatalf("%s: NodeGroup(%d) = %d, EndpointGroup = %d", name, node, got, want)
			}
		}
	}
	frontier, err := NewDragonfly(FrontierConfig())
	if err != nil {
		t.Fatal(err)
	}
	check("frontier", frontier)

	small, err := NewDragonfly(ScaledConfig(5, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	check("scaled", small)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		small.FailSwitch(rng.Intn(small.NumSwitches))
		small.FailLink(rng.Intn(len(small.Links)))
		check("scaled after failures", small)
	}

	clos, err := NewClos(SummitClosConfig())
	if err != nil {
		t.Fatal(err)
	}
	check("clos", clos)
	if g := clos.GroupsSpanned([]int{0, clos.Cfg.ComputeNodes() - 1}); g != 1 {
		t.Errorf("clos: GroupsSpanned across the tree = %d, want 1", g)
	}
}
