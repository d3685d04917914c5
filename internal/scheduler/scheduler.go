// Package scheduler models Frontier's Slurm configuration (§3.4.2):
// exclusive whole-node allocation, a checknode health gate at boot and
// between jobs, a unique Slingshot VNI per job step for traffic
// isolation, EASY backfill, and topology-aware placement — small jobs
// pack tightly into one dragonfly group to minimise global hops, large
// jobs spread evenly across as many groups as possible to maximise the
// global links available to minimal routing.
//
// The hot paths are indexed for full-machine campaigns: a per-group
// free-count table and a free-node bitmap (bit set ⟺ free AND healthy)
// make Place near-O(groups) instead of O(nodes), a per-node running-job
// table makes failure attribution O(1), and the pending queue is an
// index-tracked structure with tombstoned removal so backfill never pays
// the old O(n) slice deletes. Place allocates only its result: a packed
// job is walked off one group's bitmap in node order, and a spread job is
// marked into a reusable node bitmap and swept out in node order, so no
// allocation is ever sorted. All index structures are pure accelerators:
// placement decisions, queue order, and therefore every downstream RNG
// draw are bit-identical to the linear-scan implementation they replace.
package scheduler

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"frontiersim/internal/fabric"
	"frontiersim/internal/job"
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// JobState is the lifecycle state of a job.
type JobState int

// Job states.
const (
	Pending JobState = iota
	Running
	Completed
	Failed
	Cancelled
	// Timeout is a phase-structured job killed at its requested walltime
	// before its program finished (duration-blob jobs end exactly at
	// their walltime and complete normally).
	Timeout
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	case Timeout:
		return "timeout"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Job is one batch job. A duration-blob job (Program == nil) runs for
// exactly Walltime; a phase-structured job carries a Program whose
// runtime is derived by binding it to the allocation the scheduler
// actually grants — Walltime is then the *requested* limit quoted from a
// nominal spread placement, and the delivered runtime emerges from the
// placement's collective performance.
type Job struct {
	ID       int
	Name     string
	Nodes    int
	Walltime units.Seconds

	// Program, when set, makes this a phase-structured job.
	Program *job.Program

	State  JobState
	Submit units.Seconds
	Start  units.Seconds
	End    units.Seconds
	// Alloc is the exclusive node allocation.
	Alloc []int
	// VNI is the job step's Virtual Network Identifier.
	VNI int
	// OnComplete, if set, runs when the job finishes (any final state).
	OnComplete func(*Job)

	// Bound is the program priced on the granted allocation (program
	// jobs only, set at start).
	Bound *job.Bound
	// LostWork is the simulated time since the last completed checkpoint
	// at the moment the job failed — the work an interrupt destroyed.
	LostWork units.Seconds
	// Checkpoints is the count of checkpoint phases the job completed.
	Checkpoints int

	exec     *job.Exec
	endEvent sim.Event
	// qpos is the job's slot in the pending queue, -1 when not queued.
	qpos int
}

// Class returns the workload stratum label (program jobs) or the job
// name (blob jobs).
func (j *Job) Class() string {
	if j.Program != nil && j.Program.Class != "" {
		return j.Program.Class
	}
	return j.Name
}

// GroupsSpanned reports how many dragonfly groups the allocation touches.
func (j *Job) GroupsSpanned(f *fabric.Fabric) int { return f.GroupsSpanned(j.Alloc) }

// Scheduler is the system-level batch scheduler.
type Scheduler struct {
	K *sim.Kernel
	F *fabric.Fabric

	// Env, when set, lets the scheduler accept phase-structured jobs via
	// SubmitProgram: it quotes requested walltimes from a nominal spread
	// placement and re-prices each program on its granted allocation.
	Env *job.Env

	// BackfillDepth bounds how many pending jobs one EASY backfill pass
	// examines behind the queue head; 0 scans the whole queue. Bounding
	// the scan is how real schedulers keep a deep queue cheap; it can
	// only *skip* backfill starts, never reorder them.
	BackfillDepth int

	nodesPerGroup int
	groups        int
	totalNodes    int

	free      []bool // per node: idle, healthy or not
	unhealthy []bool // per node: failing checknode
	// freeBits is the scheduling index: bit n set ⟺ free[n] && !unhealthy[n].
	// groupFree and freeHealthy are its per-group and global popcounts.
	freeBits    []uint64
	groupFree   []int
	freeHealthy int
	// nodeJob maps an allocated node to the job running on it (exclusive
	// allocation: at most one).
	nodeJob []*Job

	queue     jobQueue
	running   map[int]*Job
	nextJobID int
	vni       *vniPool
	// marks is spread placement's per-node bitmap (bit n set ⟺ node n
	// chosen); the sweep that emits the allocation leaves it all-zero.
	marks []uint64
	// gfScratch is Place's reusable (group, free) working slice.
	gfScratch []groupFreeCount
	// endsScratch is reservation's reusable running-job slice; it holds
	// no pointers between calls.
	endsScratch []*Job

	// Stats.
	Started, Finished, FailedJobs, HealthRejects int
}

type groupFreeCount struct{ id, free int }

// New builds a scheduler over the compute nodes of fabric f.
func New(k *sim.Kernel, f *fabric.Fabric) *Scheduler {
	total := f.Cfg.ComputeNodes()
	s := &Scheduler{
		K:             k,
		F:             f,
		nodesPerGroup: f.Cfg.NodesPerGroup(),
		groups:        f.Cfg.ComputeGroups,
		totalNodes:    total,
		free:          make([]bool, total),
		unhealthy:     make([]bool, total),
		freeBits:      make([]uint64, (total+63)/64),
		groupFree:     make([]int, f.Cfg.ComputeGroups),
		freeHealthy:   total,
		nodeJob:       make([]*Job, total),
		running:       map[int]*Job{},
		nextJobID:     1,
		vni:           newVNIPool(1, 65535),
		marks:         make([]uint64, (total+63)/64),
		gfScratch:     make([]groupFreeCount, 0, f.Cfg.ComputeGroups),
	}
	for i := range s.free {
		s.free[i] = true
		s.freeBits[i>>6] |= 1 << (i & 63)
	}
	for g := range s.groupFree {
		s.groupFree[g] = s.nodesPerGroup
	}
	return s
}

// setFree adds node to the scheduling index (it must be absent).
func (s *Scheduler) setFree(node int) {
	s.freeBits[node>>6] |= 1 << (node & 63)
	s.groupFree[node/s.nodesPerGroup]++
	s.freeHealthy++
}

// clearFree removes node from the scheduling index (it must be present).
func (s *Scheduler) clearFree(node int) {
	s.freeBits[node>>6] &^= 1 << (node & 63)
	s.groupFree[node/s.nodesPerGroup]--
	s.freeHealthy--
}

// FreeNodes returns the count of idle healthy nodes.
func (s *Scheduler) FreeNodes() int { return s.freeHealthy }

// MarkUnhealthy records a node as failing checknode; running jobs on it
// fail immediately (compute nodes are scheduled exclusively, so only one
// job can be affected).
func (s *Scheduler) MarkUnhealthy(node int) {
	if node < 0 || node >= s.totalNodes {
		return
	}
	if !s.unhealthy[node] {
		s.unhealthy[node] = true
		if s.free[node] {
			s.clearFree(node)
		}
	}
	if j := s.nodeJob[node]; j != nil {
		s.finish(j, Failed)
	}
}

// MarkHealthy returns a repaired node to service.
func (s *Scheduler) MarkHealthy(node int) {
	if node >= 0 && node < s.totalNodes && s.unhealthy[node] {
		s.unhealthy[node] = false
		if s.free[node] {
			s.setFree(node)
		}
	}
	s.trySchedule()
}

// Checknode is the health gate Slurm runs at boot and between jobs.
func (s *Scheduler) Checknode(node int) bool {
	return node >= 0 && node < s.totalNodes && !s.unhealthy[node]
}

// Submit enqueues a job and attempts to schedule. It returns the job so
// callers can watch its state.
func (s *Scheduler) Submit(name string, nodes int, walltime units.Seconds, onComplete func(*Job)) (*Job, error) {
	if nodes < 1 || nodes > s.totalNodes {
		return nil, fmt.Errorf("scheduler: job needs 1..%d nodes, got %d", s.totalNodes, nodes)
	}
	if walltime <= 0 {
		return nil, fmt.Errorf("scheduler: walltime must be positive")
	}
	j := &Job{
		ID:         s.nextJobID,
		Name:       name,
		Nodes:      nodes,
		Walltime:   walltime,
		State:      Pending,
		Submit:     s.K.Now(),
		OnComplete: onComplete,
		qpos:       -1,
	}
	s.nextJobID++
	s.queue.push(j)
	s.trySchedule()
	return j, nil
}

// walltimeMargin is the slack a phase-structured job requests over its
// nominal estimate, covering the spread between the quoted placement and
// the one actually granted (users pad their Slurm walltimes the same way).
const walltimeMargin = 1.25

// SubmitProgram enqueues a phase-structured job. The requested walltime
// is derived from the program itself — priced on a nominal spread
// placement and padded by walltimeMargin — so callers never supply a
// duration; the delivered runtime is whatever the granted placement
// yields.
func (s *Scheduler) SubmitProgram(p *job.Program, onComplete func(*Job)) (*Job, error) {
	if s.Env == nil {
		return nil, fmt.Errorf("scheduler: no job env configured, cannot accept program %q", p.Name)
	}
	est, err := s.Env.Estimate(p)
	if err != nil {
		return nil, err
	}
	j := &Job{
		ID:         s.nextJobID,
		Name:       p.Name,
		Nodes:      p.Nodes,
		Walltime:   est * walltimeMargin,
		Program:    p,
		State:      Pending,
		Submit:     s.K.Now(),
		OnComplete: onComplete,
		qpos:       -1,
	}
	s.nextJobID++
	s.queue.push(j)
	s.trySchedule()
	return j, nil
}

// Cancel removes a pending job or kills a running one.
func (s *Scheduler) Cancel(j *Job) {
	switch j.State {
	case Pending:
		s.queue.remove(j)
		j.State = Cancelled
		if j.OnComplete != nil {
			j.OnComplete(j)
		}
	case Running:
		s.finish(j, Cancelled)
	}
}

// Queue returns the pending jobs in order.
func (s *Scheduler) Queue() []*Job { return s.queue.snapshot() }

// Running returns the currently running jobs.
func (s *Scheduler) Running() []*Job {
	out := make([]*Job, 0, len(s.running))
	for _, j := range s.running {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// trySchedule starts the queue head if it fits, then EASY-backfills: a
// later job may jump ahead only if starting it now cannot delay the
// head's reservation.
func (s *Scheduler) trySchedule() {
	for s.queue.len() > 0 {
		if !s.start(s.queue.first()) {
			break
		}
		s.queue.removeFirst()
	}
	if s.queue.len() == 0 || s.freeHealthy == 0 {
		// An empty machine cannot backfill anything; skipping the scan
		// changes no decisions (no job fits), only the cost of making none.
		return
	}
	head := s.queue.first()
	resTime, nodesAtRes := s.reservation(head)
	scanned := 0
	for i := s.queue.head + 1; i < len(s.queue.items); i++ {
		j := s.queue.items[i]
		if j == nil {
			continue
		}
		if s.freeHealthy == 0 {
			break
		}
		scanned++
		if s.BackfillDepth > 0 && scanned > s.BackfillDepth {
			break
		}
		fitsNow := j.Nodes <= s.FreeNodes()
		noDelay := s.K.Now()+j.Walltime <= resTime || s.FreeNodes()-j.Nodes >= nodesAtRes
		if fitsNow && noDelay && s.start(j) {
			s.queue.removeAt(i)
		}
	}
	s.queue.maybeCompact()
}

// reservation estimates when the head job can start: walk running jobs by
// end time accumulating freed nodes.
func (s *Scheduler) reservation(head *Job) (units.Seconds, int) {
	free := s.FreeNodes()
	if free >= head.Nodes {
		return s.K.Now(), head.Nodes
	}
	ends := s.endsScratch[:0]
	for _, j := range s.running {
		ends = append(ends, j)
	}
	// Map order reaches the sort, but only the threshold job's End is
	// returned, and jobs tied on End all return the same value.
	slices.SortFunc(ends, func(a, b *Job) int { return cmp.Compare(a.End, b.End) })
	at := s.K.Now() + head.Walltime // unreachable in practice
	for _, j := range ends {
		free += len(j.Alloc)
		if free >= head.Nodes {
			at = j.End
			break
		}
	}
	clear(ends)
	s.endsScratch = ends[:0]
	return at, head.Nodes
}

// start attempts to place and launch a job; reports success.
func (s *Scheduler) start(j *Job) bool {
	alloc := s.Place(j.Nodes)
	if alloc == nil {
		return false
	}
	vni, ok := s.vni.acquire()
	if !ok {
		return false
	}
	j.Alloc = alloc
	j.VNI = vni
	j.State = Running
	j.Start = s.K.Now()
	j.End = j.Start + j.Walltime
	for _, n := range alloc {
		s.free[n] = false
		s.clearFree(n)
		s.nodeJob[n] = j
	}
	s.running[j.ID] = j
	s.Started++
	if j.Program != nil {
		s.launch(j)
	} else {
		j.endEvent = s.K.At(j.End, func() { s.finish(j, Completed) })
	}
	return true
}

// launch binds a program job to its granted allocation and begins
// executing it on the event kernel. Completion is driven by the
// program's last phase boundary; the requested walltime survives only as
// a kill limit, exactly like Slurm's TIMEOUT.
func (s *Scheduler) launch(j *Job) {
	bound, err := s.Env.Bind(j.Program, j.Alloc)
	if err != nil {
		// A program that cannot be priced on real nodes is a launch
		// failure, not a scheduler crash. Failing via an immediate event
		// keeps finish() out of the trySchedule loop that called start.
		j.endEvent = s.K.After(0, func() { s.finish(j, Failed) })
		return
	}
	j.Bound = bound
	if bound.Total <= j.Walltime {
		j.End = j.Start + bound.Total
	}
	j.exec = (&job.Exec{Bound: bound, K: s.K, OnDone: func() { s.finish(j, Completed) }}).Start()
	if bound.Total > j.Walltime {
		j.endEvent = s.K.At(j.Start+j.Walltime, func() { s.finish(j, Timeout) })
	}
}

func (s *Scheduler) finish(j *Job, state JobState) {
	if j.State != Running {
		return
	}
	j.endEvent.Cancel()
	if j.exec != nil {
		// Interrupts and kills land mid-phase: charge the work since the
		// last completed checkpoint before abandoning the partial phase.
		if state != Completed {
			j.LostWork = j.exec.LostWork()
		}
		j.Checkpoints = j.exec.Checkpoints
		j.exec.Stop()
	}
	j.State = state
	j.End = s.K.Now()
	delete(s.running, j.ID)
	for _, n := range j.Alloc {
		// checknode between jobs: unhealthy nodes stay out of the pool
		// but are still marked free so repairs can return them.
		s.free[n] = true
		s.nodeJob[n] = nil
		if !s.unhealthy[n] {
			s.setFree(n)
		}
	}
	s.vni.release(j.VNI)
	s.Finished++
	if state == Failed {
		s.FailedJobs++
	}
	if j.OnComplete != nil {
		j.OnComplete(j)
	}
	s.trySchedule()
}

// Place chooses nodes for a job of size n, or returns nil if it cannot
// fit now. It only reads the scheduling index — starting a job commits
// the allocation — so it doubles as a dry-run query. The result is
// ascending and exactly n long: a packed job comes from one group's
// bitmap walk, and a spread job is marked node by node and swept out in
// node order.
func (s *Scheduler) Place(n int) []int {
	if n <= s.nodesPerGroup {
		// Pack: best-fit group (smallest free count that fits) to keep
		// large contiguous blocks available.
		best := -1
		for g := 0; g < s.groups; g++ {
			f := s.groupFree[g]
			if f >= n && (best == -1 || f < s.groupFree[best]) {
				best = g
			}
		}
		if best >= 0 {
			return s.takeFromGroup(make([]int, 0, n), best, n)
		}
		// No single group fits; fall through to spreading.
	}
	if s.freeHealthy < n {
		return nil
	}
	// Spread: allocate round-robin from the groups with the most free
	// nodes so the job touches as many groups as evenly as possible.
	gf := s.gfScratch[:0]
	groupsWithFree := 0
	for g := 0; g < s.groups; g++ {
		gf = append(gf, groupFreeCount{id: g, free: s.groupFree[g]})
		if s.groupFree[g] > 0 {
			groupsWithFree++
		}
	}
	slices.SortFunc(gf, func(a, b groupFreeCount) int {
		if a.free != b.free {
			return cmp.Compare(b.free, a.free)
		}
		return cmp.Compare(a.id, b.id)
	})
	alloc := make([]int, 0, n)
	remaining := n
	// First pass: equal share per group.
	share := (n + groupsWithFree - 1) / groupsWithFree
	for _, g := range gf {
		if remaining == 0 {
			break
		}
		take := min(share, g.free, remaining)
		alloc = s.takeFromGroup(alloc, g.id, take)
		remaining -= take
	}
	marks := s.marks
	for _, a := range alloc {
		marks[a>>6] |= 1 << (a & 63)
	}
	// Second pass: whatever is left, wherever it fits, lowest free
	// unmarked node first.
	for w := 0; w < len(marks) && remaining > 0; w++ {
		for avail := s.freeBits[w] &^ marks[w]; avail != 0 && remaining > 0; avail &= avail - 1 {
			marks[w] |= avail & -avail
			remaining--
		}
	}
	// Sweep: emit the marked nodes in ascending order, clearing as we go.
	alloc = alloc[:0]
	for w, word := range marks {
		for ; word != 0; word &= word - 1 {
			alloc = append(alloc, w<<6|bits.TrailingZeros64(word))
		}
		marks[w] = 0
	}
	if remaining > 0 {
		return nil // the index undercounted; never grant a short allocation
	}
	return alloc
}

// takeFromGroup appends up to n free healthy nodes from group g to out
// in ascending node order, walked off the free bitmap.
func (s *Scheduler) takeFromGroup(out []int, g, n int) []int {
	start := g * s.nodesPerGroup
	end := min(start+s.nodesPerGroup, s.totalNodes)
	for node := start; node < end && n > 0; {
		w := s.freeBits[node>>6] >> (node & 63)
		if w == 0 {
			node = (node &^ 63) + 64
			continue
		}
		node += bits.TrailingZeros64(w)
		if node >= end {
			break
		}
		out = append(out, node)
		n--
		node++
	}
	return out
}

// jobQueue is the pending queue: FIFO order with O(1) removal anywhere.
// Removed slots become nil tombstones (each job tracks its slot in
// qpos); the slice compacts in place once tombstones dominate, so a
// year-long campaign never pays the old O(n) delete per backfill start.
type jobQueue struct {
	items []*Job
	head  int // index of the first live entry (all earlier slots are nil)
	live  int
}

func (q *jobQueue) len() int { return q.live }

func (q *jobQueue) push(j *Job) {
	j.qpos = len(q.items)
	q.items = append(q.items, j)
	q.live++
}

// first returns the oldest pending job; the queue must be non-empty.
func (q *jobQueue) first() *Job { return q.items[q.head] }

func (q *jobQueue) removeFirst() { q.removeAt(q.head) }

func (q *jobQueue) removeAt(i int) {
	q.items[i].qpos = -1
	q.items[i] = nil
	q.live--
	if i == q.head {
		q.advanceHead()
	}
}

func (q *jobQueue) remove(j *Job) {
	if j.qpos >= 0 && j.qpos < len(q.items) && q.items[j.qpos] == j {
		q.removeAt(j.qpos)
	}
}

func (q *jobQueue) advanceHead() {
	for q.head < len(q.items) && q.items[q.head] == nil {
		q.head++
	}
	if q.live == 0 {
		q.items = q.items[:0]
		q.head = 0
	}
}

// maybeCompact squeezes tombstones out once they outnumber live entries
// by a margin, preserving order and re-indexing qpos.
func (q *jobQueue) maybeCompact() {
	if len(q.items)-q.live <= q.live+64 {
		return
	}
	w := 0
	for _, j := range q.items {
		if j != nil {
			j.qpos = w
			q.items[w] = j
			w++
		}
	}
	q.items = q.items[:w]
	q.head = 0
}

// snapshot returns the live jobs in queue order.
func (q *jobQueue) snapshot() []*Job {
	if q.live == 0 {
		return nil
	}
	out := make([]*Job, 0, q.live)
	for _, j := range q.items[q.head:] {
		if j != nil {
			out = append(out, j)
		}
	}
	return out
}

// vniPool hands out unique Virtual Network Identifiers.
type vniPool struct {
	next, lo, hi int
	inUse        map[int]bool
}

func newVNIPool(lo, hi int) *vniPool {
	return &vniPool{next: lo, lo: lo, hi: hi, inUse: map[int]bool{}}
}

func (p *vniPool) acquire() (int, bool) {
	for scanned := 0; scanned <= p.hi-p.lo; scanned++ {
		v := p.next
		p.next++
		if p.next > p.hi {
			p.next = p.lo
		}
		if !p.inUse[v] {
			p.inUse[v] = true
			return v, true
		}
	}
	return 0, false
}

func (p *vniPool) release(v int) { delete(p.inUse, v) }
