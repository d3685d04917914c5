package fabric

import (
	"fmt"
	"math/rand"

	"frontiersim/internal/units"
)

// LinkKind classifies a directed link.
type LinkKind int

// Link kinds.
const (
	// Injection is endpoint → switch.
	Injection LinkKind = iota
	// Ejection is switch → endpoint.
	Ejection
	// Intra is a switch → switch link within a group (an L1 port).
	Intra
	// Global is a switch → switch link between groups (an L2 port).
	Global
	// Uplink joins a leaf switch to the core of a Clos fabric.
	Uplink
	// Downlink joins the Clos core to a leaf switch.
	Downlink
)

// String implements fmt.Stringer.
func (k LinkKind) String() string {
	switch k {
	case Injection:
		return "injection"
	case Ejection:
		return "ejection"
	case Intra:
		return "intra(L1)"
	case Global:
		return "global(L2)"
	case Uplink:
		return "uplink"
	case Downlink:
		return "downlink"
	}
	return fmt.Sprintf("LinkKind(%d)", int(k))
}

// Link is one directed link.
type Link struct {
	ID   int
	Kind LinkKind
	// From and To are switch ids for switch-to-switch links. For
	// Injection, From is an endpoint id; for Ejection, To is an
	// endpoint id.
	From, To int
	// Cap is the usable capacity in bytes/s (line rate for fabric
	// links; line rate × endpoint efficiency at endpoints).
	Cap float64
	// Up is false when the link (or its switch) has failed.
	Up bool
}

// Kind identifies the topology family of a built fabric.
type Kind int

// Fabric kinds.
const (
	// Dragonfly is the Slingshot three-hop direct topology.
	Dragonfly Kind = iota
	// FatTree is a non-blocking Clos, used to model Summit's EDR fabric.
	FatTree
)

// Fabric is a built network: switches, directed links, endpoints, and the
// indexes routing needs.
type Fabric struct {
	Cfg  Config
	Kind Kind

	// NumSwitches counts switches (plus one virtual core for FatTree).
	NumSwitches int
	SwitchGroup []int
	// SwitchHealthy and Links are the authoritative record of switch and
	// link state. Both change only through FailLink, RestoreLink and
	// FailSwitch, which keep the dense tables below in step; no code may
	// write them directly.
	SwitchHealthy []bool
	groupClass    []GroupClass
	groupSwitches [][]int

	Links []Link
	// linkState and linkCap are the link table's hot columns. Routing
	// probes a link's state millions of times per census, and a Link is a
	// 48-byte struct (8.5 MB for Frontier), so every probe of Links was a
	// cache miss. linkState holds one byte per link (~177 KB): stateUp
	// mirrors Links[id].Up, and stateUsable is Up with both switches
	// healthy, the answer linkUp gives. linkCap mirrors Links[id].Cap,
	// which never changes after construction.
	linkState []uint8
	linkCap   []float64
	// Routing lookups sit on the path-fill hot loop (millions of probes
	// per census), so both are dense arrays rather than maps:
	//
	// switchLocal[sw] is sw's index within its group's switch list (-1
	// for the virtual Clos core, which owns no intra links).
	switchLocal []int32
	// intraDense packs one (local,local) block per group: entry
	// intraBase[g] + la*len(group)+lb holds the directed intra link id
	// biased by +1 (0 = no link). Intra links never cross groups, so the
	// blocks cover every possible key in Σ len(group)² slots.
	intraDense []int32
	intraBase  []int32
	// globalDense[a*numGroups+b] lists the directed global link ids from
	// group a to group b, and globalEnds their (From, To) switches in the
	// same order, so routing never loads a global link's Link record.
	globalDense [][]int
	globalEnds  [][][2]int32
	numGroups   int

	NumEndpoints   int
	endpointSwitch []int
	injectLink     []int
	ejectLink      []int
	// nodeGroup[n] is the group of compute node n's first NIC, the
	// group every node-level count (GroupsSpanned, placement
	// signatures) reads. Groups are fixed at construction and no
	// failure moves a switch, so the table is filled once by finish.
	nodeGroup []int32

	// uplink and downlink join each leaf to the core in FatTree fabrics.
	uplink, downlink []int

	// stateEpoch counts link/switch state transitions (FailLink,
	// RestoreLink, FailSwitch). The network layer's SolutionCache keys on
	// it, and SolveDelta reads the journal below from it, to detect that
	// a stored allocation went stale.
	stateEpoch uint64

	// stateLog journals which links each epoch bump touched, so
	// incremental consumers (the delta solver) can ask "what changed since
	// epoch e" instead of assuming everything did. logFloor is the newest
	// epoch whose changes have been dropped from the journal: queries
	// reaching at or below it are incomplete and answer ok=false.
	stateLog []stateChange
	logFloor uint64
}

// Bits of linkState.
const (
	stateUp     uint8 = 1 << iota // Links[id].Up
	stateUsable                   // Up, and every switch the link touches healthy
)

// stateChange is one journaled link-state transition.
type stateChange struct {
	epoch uint64
	link  int32
}

// maxStateLog bounds the state journal. A fabric that has seen more
// transitions than this since a consumer's last visit has effectively
// changed wholesale; the consumer falls back to a cold rebuild.
const maxStateLog = 4096

// StateEpoch returns the link-state epoch: a counter that advances on
// every link or switch state transition. Two calls returning the same
// value bracket a window in which every path the fabric computed is
// still valid.
func (f *Fabric) StateEpoch() uint64 { return f.stateEpoch }

// logChange journals one link touched by the current epoch bump. When
// the journal would outgrow its bound the whole history is dropped:
// ChangedSince then reports ok=false for every epoch before the drop,
// which callers treat as "assume everything changed".
func (f *Fabric) logChange(id int) {
	if len(f.stateLog) >= maxStateLog {
		f.stateLog = f.stateLog[:0]
		f.logFloor = f.stateEpoch
		return
	}
	f.stateLog = append(f.stateLog, stateChange{epoch: f.stateEpoch, link: int32(id)})
}

// ChangedSince reports the ids of links whose up/down state may have
// changed after epoch e (exclusive) up to the current StateEpoch. ok is
// false when the journal no longer covers that span — the caller must
// then assume any link may have changed. Ids may repeat when a link
// toggled more than once; consumers treat the list as a dirty set.
func (f *Fabric) ChangedSince(e uint64) (links []int, ok bool) {
	if e >= f.stateEpoch {
		return nil, true
	}
	if e < f.logFloor {
		return nil, false
	}
	// Transitions are appended in epoch order; walk back to the first
	// entry inside the window.
	i := len(f.stateLog)
	for i > 0 && f.stateLog[i-1].epoch > e {
		i--
	}
	for _, c := range f.stateLog[i:] {
		links = append(links, int(c.link))
	}
	return links, true
}

// initRoutingIndex sizes the dense routing lookups once groups and
// switches exist. Constructors must call it before adding intra or
// global links.
func (f *Fabric) initRoutingIndex() {
	f.numGroups = len(f.groupSwitches)
	f.switchLocal = make([]int32, f.NumSwitches)
	for i := range f.switchLocal {
		f.switchLocal[i] = -1
	}
	f.intraBase = make([]int32, f.numGroups+1)
	base := int32(0)
	for g, ids := range f.groupSwitches {
		f.intraBase[g] = base
		for li, sw := range ids {
			f.switchLocal[sw] = int32(li)
		}
		base += int32(len(ids) * len(ids))
	}
	f.intraBase[f.numGroups] = base
	f.intraDense = make([]int32, base)
	f.globalDense = make([][]int, f.numGroups*f.numGroups)
	f.globalEnds = make([][][2]int32, f.numGroups*f.numGroups)
}

// allocLinks sizes the link table and its dense columns for exactly n
// links, so building a fabric never grows them.
func (f *Fabric) allocLinks(n int) {
	f.Links = make([]Link, 0, n)
	f.linkState = make([]uint8, 0, n)
	f.linkCap = make([]float64, 0, n)
}

// finish completes a constructor: it reports a constructor whose
// up-front link count disagrees with the links it added, then fills the
// node→group table from the cabled endpoints.
func (f *Fabric) finish(n int) error {
	if len(f.Links) != n {
		return fmt.Errorf("fabric: %s built %d links, sized for %d", f.Cfg.Name, len(f.Links), n)
	}
	if k := f.Cfg.NICsPerNode; k > 0 {
		f.nodeGroup = make([]int32, f.Cfg.ComputeNodes())
		for node := range f.nodeGroup {
			f.nodeGroup[node] = int32(f.SwitchGroup[f.endpointSwitch[node*k]])
		}
	}
	return nil
}

// setIntra records a directed intra-group link in the dense index.
func (f *Fabric) setIntra(a, b, id int) {
	g := f.SwitchGroup[a]
	n := int32(len(f.groupSwitches[g]))
	f.intraDense[f.intraBase[g]+f.switchLocal[a]*n+f.switchLocal[b]] = int32(id) + 1
}

// intraLink returns the directed intra-group link a -> b, if one exists.
func (f *Fabric) intraLink(a, b int) (int, bool) {
	g := f.SwitchGroup[a]
	if g != f.SwitchGroup[b] {
		return 0, false
	}
	la, lb := f.switchLocal[a], f.switchLocal[b]
	if la < 0 || lb < 0 {
		return 0, false
	}
	n := int32(len(f.groupSwitches[g]))
	id := f.intraDense[f.intraBase[g]+la*n+lb]
	if id == 0 {
		return 0, false
	}
	return int(id) - 1, true
}

// NewDragonfly builds the dragonfly described by cfg. Groups are laid out
// compute-first, then I/O, then management; endpoints likewise, so the
// first Cfg.ComputeEndpoints() endpoints belong to compute nodes
// (endpoint 4n+i is NIC i of node n).
func NewDragonfly(cfg Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{
		Cfg:  cfg,
		Kind: Dragonfly,
	}
	// Groups and switches.
	nsw := cfg.ComputeGroups*cfg.ComputeGroupSwitches + (cfg.IOGroups+cfg.MgmtGroups)*cfg.TORGroupSwitches
	f.SwitchGroup = make([]int, 0, nsw)
	f.SwitchHealthy = make([]bool, 0, nsw)
	for g := 0; g < cfg.TotalGroups(); g++ {
		class := ComputeGroup
		switch {
		case g >= cfg.ComputeGroups+cfg.IOGroups:
			class = MgmtGroup
		case g >= cfg.ComputeGroups:
			class = IOGroup
		}
		nsw := cfg.ComputeGroupSwitches
		if class != ComputeGroup {
			nsw = cfg.TORGroupSwitches
		}
		var ids []int
		for s := 0; s < nsw; s++ {
			id := f.NumSwitches
			f.NumSwitches++
			f.SwitchGroup = append(f.SwitchGroup, g)
			f.SwitchHealthy = append(f.SwitchHealthy, true)
			ids = append(ids, id)
		}
		f.groupClass = append(f.groupClass, class)
		f.groupSwitches = append(f.groupSwitches, ids)
	}
	f.initRoutingIndex()
	// Size every table up front: endpoint links, a full mesh per group,
	// and each group pair's global bundle, whose two directed index
	// lists are carved from one slab.
	nlinks := 2 * f.NumSwitches * cfg.EndpointsPerSwitch
	for _, ids := range f.groupSwitches {
		nlinks += len(ids) * (len(ids) - 1)
	}
	nglobal := 0
	for a := 0; a < cfg.TotalGroups(); a++ {
		for b := a + 1; b < cfg.TotalGroups(); b++ {
			nglobal += 2 * cfg.globalLinksBetween(f.groupClass[a], f.groupClass[b])
		}
	}
	nlinks += nglobal
	f.allocLinks(nlinks)
	gids, gends := make([]int, nglobal), make([][2]int32, nglobal)
	for a := 0; a < cfg.TotalGroups(); a++ {
		for b := a + 1; b < cfg.TotalGroups(); b++ {
			n := cfg.globalLinksBetween(f.groupClass[a], f.groupClass[b])
			for _, k := range [2]int{a*f.numGroups + b, b*f.numGroups + a} {
				f.globalDense[k], gids = gids[:0:n], gids[n:]
				f.globalEnds[k], gends = gends[:0:n], gends[n:]
			}
		}
	}
	f.allocEndpoints(f.NumSwitches * cfg.EndpointsPerSwitch)
	// Endpoints on every switch.
	epCap := float64(cfg.LinkRate) * cfg.EndpointEfficiency
	for sw := 0; sw < f.NumSwitches; sw++ {
		for e := 0; e < cfg.EndpointsPerSwitch; e++ {
			ep := f.NumEndpoints
			f.NumEndpoints++
			f.endpointSwitch = append(f.endpointSwitch, sw)
			f.injectLink = append(f.injectLink, f.addLink(Injection, ep, sw, epCap))
			f.ejectLink = append(f.ejectLink, f.addLink(Ejection, sw, ep, epCap))
		}
	}
	// Intra-group: full connectivity.
	for _, ids := range f.groupSwitches {
		for i := 0; i < len(ids); i++ {
			for j := 0; j < len(ids); j++ {
				if i == j {
					continue
				}
				id := f.addLink(Intra, ids[i], ids[j], float64(cfg.LinkRate))
				f.setIntra(ids[i], ids[j], id)
			}
		}
	}
	// Global links between every group pair, spread across switches.
	for a := 0; a < cfg.TotalGroups(); a++ {
		for b := a + 1; b < cfg.TotalGroups(); b++ {
			n := cfg.globalLinksBetween(f.groupClass[a], f.groupClass[b])
			for i := 0; i < n; i++ {
				swa := f.groupSwitches[a][(b*n+i)%len(f.groupSwitches[a])]
				swb := f.groupSwitches[b][(a*n+i)%len(f.groupSwitches[b])]
				f.addGlobal(a, b, swa, swb)
				f.addGlobal(b, a, swb, swa)
			}
		}
	}
	if err := f.finish(nlinks); err != nil {
		return nil, err
	}
	return f, nil
}

// addGlobal adds the directed global link from switch swa in group a to
// switch swb in group b, and indexes it with its ends.
func (f *Fabric) addGlobal(a, b, swa, swb int) {
	k := a*f.numGroups + b
	f.globalDense[k] = append(f.globalDense[k], f.addLink(Global, swa, swb, float64(f.Cfg.LinkRate)))
	f.globalEnds[k] = append(f.globalEnds[k], [2]int32{int32(swa), int32(swb)})
}

// globalLinksBetween returns the link count between groups of the given
// classes (the paper's bundle plan, §3.2).
func (c Config) globalLinksBetween(a, b GroupClass) int {
	switch {
	case a == ComputeGroup && b == ComputeGroup:
		return c.ComputeComputeLinks
	case (a == ComputeGroup && b == IOGroup) || (a == IOGroup && b == ComputeGroup):
		return c.ComputeIOLinks
	case (a == ComputeGroup && b == MgmtGroup) || (a == MgmtGroup && b == ComputeGroup):
		return c.ComputeMgmtLinks
	case a == IOGroup && b == IOGroup:
		return c.IOIOLinks
	default: // IO <-> Mgmt (or Mgmt <-> Mgmt, which does not occur)
		return c.IOMgmtLinks
	}
}

// addLink appends a link, up, between healthy switches: constructors
// add every link before any switch can fail.
func (f *Fabric) addLink(kind LinkKind, from, to int, capacity float64) int {
	id := len(f.Links)
	f.Links = append(f.Links, Link{ID: id, Kind: kind, From: from, To: to, Cap: capacity, Up: true})
	f.linkState = append(f.linkState, stateUp|stateUsable)
	f.linkCap = append(f.linkCap, capacity)
	return id
}

// allocEndpoints sizes the per-endpoint tables for exactly n endpoints.
func (f *Fabric) allocEndpoints(n int) {
	f.endpointSwitch = make([]int, 0, n)
	f.injectLink = make([]int, 0, n)
	f.ejectLink = make([]int, 0, n)
}

// LinkCapUp returns link id's capacity and its Up flag from the dense
// link columns, without loading its Link record: the max-min solver reads
// both once for every link a problem crosses.
func (f *Fabric) LinkCapUp(id int) (capacity float64, up bool) {
	return f.linkCap[id], f.linkState[id]&stateUp != 0
}

// EndpointSwitch returns the switch an endpoint is cabled to.
func (f *Fabric) EndpointSwitch(ep int) int { return f.endpointSwitch[ep] }

// EndpointGroup returns the dragonfly group of an endpoint.
func (f *Fabric) EndpointGroup(ep int) int { return f.SwitchGroup[f.endpointSwitch[ep]] }

// NodeEndpoints returns the endpoint ids of compute node n.
func (f *Fabric) NodeEndpoints(n int) []int {
	k := f.Cfg.NICsPerNode
	eps := make([]int, k)
	for i := range eps {
		eps[i] = n*k + i
	}
	return eps
}

// NodeEndpoint returns the endpoint id of NIC i of compute node n — the
// allocation-free form of NodeEndpoints[i] for demand-building hot loops
// (a full census touches hundreds of thousands of node/NIC pairs).
func (f *Fabric) NodeEndpoint(n, i int) int {
	return n*f.Cfg.NICsPerNode + i%f.Cfg.NICsPerNode
}

// NodeGroup returns the group of compute node n, by its first NIC: the
// same answer as EndpointGroup(NodeEndpoint(n, 0)), read from one dense
// table instead of two dependent loads. n must be a compute node.
func (f *Fabric) NodeGroup(n int) int { return int(f.nodeGroup[n]) }

// GroupsSpanned counts the distinct groups hosting the given compute
// nodes, each node counted by its NodeGroup. Every node must be in
// range. Groups come from the dense node→group table and the seen-set
// is a bitmap over group ids, so the count reads one int32 per node
// and costs one small allocation however many nodes it reads.
func (f *Fabric) GroupsSpanned(nodes []int) int {
	seen := make([]uint64, (f.numGroups+63)/64)
	count := 0
	for _, n := range nodes {
		g := f.nodeGroup[n]
		if bit := uint64(1) << (g & 63); seen[g>>6]&bit == 0 {
			seen[g>>6] |= bit
			count++
		}
	}
	return count
}

// GroupClassOf returns a group's class.
func (f *Fabric) GroupClassOf(g int) GroupClass { return f.groupClass[g] }

// GroupSwitches returns the switch ids of a group.
func (f *Fabric) GroupSwitches(g int) []int { return f.groupSwitches[g] }

// GlobalLinks returns the directed global link ids from group a to b.
func (f *Fabric) GlobalLinks(a, b int) []int {
	if a < 0 || b < 0 || a >= f.numGroups || b >= f.numGroups {
		return nil
	}
	return f.globalDense[a*f.numGroups+b]
}

// FailLink marks a link down.
func (f *Fabric) FailLink(id int) {
	f.Links[id].Up = false
	f.syncState(id)
	f.stateEpoch++
	f.logChange(id)
}

// RestoreLink marks a link up again. It stays unusable for routing while
// a switch it touches is unhealthy.
func (f *Fabric) RestoreLink(id int) {
	f.Links[id].Up = true
	f.syncState(id)
	f.stateEpoch++
	f.logChange(id)
}

// syncState recomputes link id's dense state from Links and
// SwitchHealthy.
func (f *Fabric) syncState(id int) {
	l := &f.Links[id]
	var st uint8
	if l.Up {
		st = stateUp
		healthy := false
		switch l.Kind {
		case Injection:
			healthy = f.SwitchHealthy[l.To]
		case Ejection:
			healthy = f.SwitchHealthy[l.From]
		default:
			healthy = f.SwitchHealthy[l.From] && f.SwitchHealthy[l.To]
		}
		if healthy {
			st |= stateUsable
		}
	}
	f.linkState[id] = st
}

// FailSwitch marks a switch unhealthy and all links touching it down.
func (f *Fabric) FailSwitch(sw int) {
	f.SwitchHealthy[sw] = false
	f.stateEpoch++
	for i := range f.Links {
		l := &f.Links[i]
		touches := (l.Kind != Injection && l.From == sw) || (l.Kind != Ejection && l.To == sw) ||
			(l.Kind == Injection && l.To == sw) || (l.Kind == Ejection && l.From == sw)
		if touches {
			l.Up = false
			f.syncState(i)
			f.logChange(i)
		}
	}
}

// linkUp reports whether a link and its switches are usable.
func (f *Fabric) linkUp(id int) bool { return f.linkState[id]&stateUsable != 0 }

// pickGlobal returns a usable global link from group a to group b and
// its From and To switches, preferring the rotation offset; ok is false
// if every such link is down.
func (f *Fabric) pickGlobal(a, b, offset int) (id, from, to int, ok bool) {
	if a < 0 || b < 0 || a >= f.numGroups || b >= f.numGroups {
		return 0, 0, 0, false
	}
	k := a*f.numGroups + b
	ids := f.globalDense[k]
	for i := 0; i < len(ids); i++ {
		j := (offset + i) % len(ids)
		if f.linkUp(ids[j]) {
			e := f.globalEnds[k][j]
			return ids[j], int(e[0]), int(e[1]), true
		}
	}
	return 0, 0, 0, false
}

// MinimalPath returns the directed link sequence of the minimal route
// between two endpoints: inject → (intra) → (global) → (intra) → eject.
// rng selects among parallel global links; it may be nil for a
// deterministic choice.
func (f *Fabric) MinimalPath(src, dst int, rng *rand.Rand) ([]int, error) {
	return f.appendMinimalPath(make([]int, 0, 6), src, dst, rng)
}

// AppendMinimalPath is MinimalPath in append style: the route's links
// are appended to buf and the extended slice returned, so callers that
// reuse a scratch buffer (the message transport's pooled per-message hop
// state) pay no allocation per route. On error the returned slice is nil
// and buf's visible contents are unchanged.
func (f *Fabric) AppendMinimalPath(buf []int, src, dst int, rng *rand.Rand) ([]int, error) {
	return f.appendMinimalPath(buf, src, dst, rng)
}

// appendMinimalPath appends the minimal route's links to buf and returns
// the extended slice. On error buf's visible contents are unchanged
// (callers rewind by keeping their original slice header), which is what
// lets AdaptivePaths fill every route of a path set into one flat
// backing array.
func (f *Fabric) appendMinimalPath(buf []int, src, dst int, rng *rand.Rand) ([]int, error) {
	if src == dst {
		return nil, fmt.Errorf("fabric: self path for endpoint %d", src)
	}
	path := buf
	if !f.linkUp(f.injectLink[src]) || !f.linkUp(f.ejectLink[dst]) {
		return nil, fmt.Errorf("fabric: endpoint link down (%d->%d)", src, dst)
	}
	path = append(path, f.injectLink[src])
	s1, s2 := f.endpointSwitch[src], f.endpointSwitch[dst]
	if f.Kind == FatTree {
		if s1 != s2 {
			if !f.linkUp(f.uplink[s1]) || !f.linkUp(f.downlink[s2]) {
				return nil, fmt.Errorf("fabric: trunk link down (%d->%d)", s1, s2)
			}
			path = append(path, f.uplink[s1], f.downlink[s2])
		}
		return append(path, f.ejectLink[dst]), nil
	}
	g1, g2 := f.SwitchGroup[s1], f.SwitchGroup[s2]
	switch {
	case s1 == s2:
		// Same switch: inject + eject only.
	case g1 == g2:
		id, ok := f.intraUp(s1, s2)
		if !ok {
			return nil, fmt.Errorf("fabric: intra link %d->%d down", s1, s2)
		}
		path = append(path, id)
	default:
		off := 0
		if rng != nil {
			off = rng.Intn(8)
		}
		gl, sa, sb, ok := f.pickGlobal(g1, g2, off)
		if !ok {
			return nil, fmt.Errorf("fabric: no global link up from group %d to %d", g1, g2)
		}
		if sa != s1 {
			id, ok := f.intraUp(s1, sa)
			if !ok {
				return nil, fmt.Errorf("fabric: intra link %d->%d down", s1, sa)
			}
			path = append(path, id)
		}
		path = append(path, gl)
		if sb != s2 {
			id, ok := f.intraUp(sb, s2)
			if !ok {
				return nil, fmt.Errorf("fabric: intra link %d->%d down", sb, s2)
			}
			path = append(path, id)
		}
	}
	path = append(path, f.ejectLink[dst])
	return path, nil
}

func (f *Fabric) intraUp(a, b int) (int, bool) {
	id, ok := f.intraLink(a, b)
	if !ok || !f.linkUp(id) {
		return 0, false
	}
	return id, true
}

// ValiantPath returns a non-minimal route through intermediate group via:
// the Valiant trick dragonflies use to spread adversarial traffic. via
// must differ from both endpoint groups.
func (f *Fabric) ValiantPath(src, dst, via int, rng *rand.Rand) ([]int, error) {
	return f.appendValiantPath(make([]int, 0, 8), src, dst, via, rng)
}

// appendValiantPath is ValiantPath in the append style of
// appendMinimalPath: links land in buf, errors leave it untouched.
func (f *Fabric) appendValiantPath(buf []int, src, dst, via int, rng *rand.Rand) ([]int, error) {
	s1, s2 := f.endpointSwitch[src], f.endpointSwitch[dst]
	g1, g2 := f.SwitchGroup[s1], f.SwitchGroup[s2]
	if via == g1 || via == g2 {
		return nil, fmt.Errorf("fabric: valiant group %d collides with endpoint groups %d,%d", via, g1, g2)
	}
	if !f.linkUp(f.injectLink[src]) || !f.linkUp(f.ejectLink[dst]) {
		return nil, fmt.Errorf("fabric: endpoint link down (%d->%d)", src, dst)
	}
	off1, off2 := 0, 0
	if rng != nil {
		off1, off2 = rng.Intn(8), rng.Intn(8)
	}
	gl1, sa, sm1, ok := f.pickGlobal(g1, via, off1)
	if !ok {
		return nil, fmt.Errorf("fabric: no global link up from group %d to %d", g1, via)
	}
	gl2, sm2, sb, ok := f.pickGlobal(via, g2, off2)
	if !ok {
		return nil, fmt.Errorf("fabric: no global link up from group %d to %d", via, g2)
	}
	path := append(buf, f.injectLink[src])
	if sa != s1 {
		id, ok := f.intraUp(s1, sa)
		if !ok {
			return nil, fmt.Errorf("fabric: intra link %d->%d down", s1, sa)
		}
		path = append(path, id)
	}
	path = append(path, gl1)
	if sm1 != sm2 {
		id, ok := f.intraUp(sm1, sm2)
		if !ok {
			return nil, fmt.Errorf("fabric: intra link %d->%d down", sm1, sm2)
		}
		path = append(path, id)
	}
	path = append(path, gl2)
	if sb != s2 {
		id, ok := f.intraUp(sb, s2)
		if !ok {
			return nil, fmt.Errorf("fabric: intra link %d->%d down", sb, s2)
		}
		path = append(path, id)
	}
	path = append(path, f.ejectLink[dst])
	return path, nil
}

// PathLatency returns the zero-load latency of a path: endpoint overhead
// at both ends plus a switch traversal per switch on the route.
func (f *Fabric) PathLatency(path []int) units.Seconds {
	lat := 2 * f.Cfg.EndpointLatency
	for _, id := range path {
		if f.Links[id].Kind != Ejection {
			// Every non-ejection link lands in a switch that must
			// forward the packet.
			lat += f.Cfg.SwitchLatency
		}
	}
	return lat
}

// String summarises the fabric.
func (f *Fabric) String() string {
	return fmt.Sprintf("%s: %d groups, %d switches, %d endpoints, %d directed links",
		f.Cfg.Name, f.Cfg.TotalGroups(), f.NumSwitches, f.NumEndpoints, len(f.Links))
}

// PortUsage is one switch's port budget: the Rosetta ASIC has 64 ports,
// which HPE splits 16 L0 (endpoints) + 32 L1 (intra-group) + 16 L2
// (global) on compute blades.
type PortUsage struct {
	Switch                    int
	L0, L1, L2                int
	L0Limit, L1Limit, L2Limit int
}

// Total returns ports in use.
func (p PortUsage) Total() int { return p.L0 + p.L1 + p.L2 }

// WithinBudget reports whether the switch respects the 64-port ASIC and
// the per-tier split.
func (p PortUsage) WithinBudget() bool {
	return p.L0 <= p.L0Limit && p.L1 <= p.L1Limit && p.L2 <= p.L2Limit && p.Total() <= 64
}

// PortBudget audits one switch's physical port usage against the ASIC.
func (f *Fabric) PortBudget(sw int) PortUsage {
	u := PortUsage{Switch: sw, L0Limit: 16, L1Limit: 32, L2Limit: 16}
	if f.Kind == FatTree {
		u.L0Limit, u.L1Limit, u.L2Limit = 64, 64, 64
	}
	for _, l := range f.Links {
		switch l.Kind {
		case Injection:
			if l.To == sw {
				u.L0++
			}
		case Ejection:
			// The ejection direction shares the L0 port counted above.
		case Intra:
			if l.From == sw {
				u.L1++
			}
		case Global:
			if l.From == sw {
				u.L2++
			}
		case Uplink, Downlink:
			if l.From == sw || l.To == sw {
				u.L1++
			}
		}
	}
	return u
}

// AuditPorts verifies every switch in the fabric fits the ASIC budget.
func (f *Fabric) AuditPorts() error {
	for sw := 0; sw < f.NumSwitches; sw++ {
		if u := f.PortBudget(sw); !u.WithinBudget() {
			return fmt.Errorf("fabric: switch %d exceeds port budget: L0 %d/%d, L1 %d/%d, L2 %d/%d",
				sw, u.L0, u.L0Limit, u.L1, u.L1Limit, u.L2, u.L2Limit)
		}
	}
	return nil
}
