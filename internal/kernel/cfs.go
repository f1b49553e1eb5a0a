package kernel

import (
	"math/bits"
	"time"

	"enoki/internal/core"
	"enoki/internal/rbtree"
)

// NICE0Load is the CFS load weight of a nice-0 task.
const NICE0Load = 1024

// niceToWeight is the kernel's sched_prio_to_weight table: each nice step
// changes CPU share by ~10% relative to neighbours.
var niceToWeight = [40]int64{
	88761, 71755, 56483, 46273, 36291,
	29154, 23254, 18705, 14949, 11916,
	9548, 7620, 6100, 4904, 3906,
	3121, 2501, 1991, 1586, 1277,
	1024, 820, 655, 526, 423,
	335, 272, 215, 172, 137,
	110, 87, 70, 56, 45,
	36, 29, 23, 18, 15,
}

// WeightOf returns the CFS load weight for a nice value.
func WeightOf(nice int) int64 {
	if nice < -20 {
		nice = -20
	}
	if nice > 19 {
		nice = 19
	}
	return niceToWeight[nice+20]
}

// CFS tuning knobs (kernel defaults with CONFIG_HZ=1000 scaling).
const (
	cfsTargetLatency   = 6 * time.Millisecond
	cfsMinGranularity  = 750 * time.Microsecond
	cfsWakeupGranNS    = int64(time.Millisecond)     // wakeup preemption granularity, vruntime ns
	cfsSleeperCreditNS = int64(3 * time.Millisecond) // GENTLE_FAIR_SLEEPERS: latency/2
	cfsNrLatency       = 8
	cfsBalancePeriod   = 4 * time.Millisecond
	// cfsLLCImbalance is the extra queue depth a same-socket CPU outside
	// the puller's LLC domain must show before a cache-cold pull is worth
	// it; cfsNUMAImbalance is the (larger) threshold for crossing sockets.
	// Balancing is sharded by domain: newidle steals inside the LLC first
	// and escalates outward only past these thresholds.
	cfsLLCImbalance  = 1
	cfsNUMAImbalance = 2
)

// cfsEntity is the per-task CFS state (struct sched_entity analogue),
// embedded in the Task with its run-queue node embedded in turn, so queueing
// allocates nothing. The entity is queued exactly while node.Linked().
type cfsEntity struct {
	t           *Task
	weight      int64
	vruntime    int64 // weighted virtual runtime, ns
	prevSum     time.Duration
	lastPickSum time.Duration
	everRan     bool
	node        rbtree.Node[int64, *cfsEntity]
}

// cfsRq is the per-CPU CFS run queue.
type cfsRq struct {
	tree        rbtree.Tree[int64, *cfsEntity]
	minV        int64
	curr        *cfsEntity
	totalWeight int64 // queued + running weight
	node, llc   int   // where the CPU's socket and LLC domain count in CFS.wait
}

// nrTotal is runnable count including the running task.
func (rq *cfsRq) nrTotal() int {
	n := rq.tree.Len()
	if rq.curr != nil {
		n++
	}
	return n
}

func (rq *cfsRq) updateMinV() {
	v := rq.minV
	if rq.curr != nil {
		v = rq.curr.vruntime
	}
	if left := rq.tree.Min(); left != nil {
		lv := left.Value().vruntime
		if rq.curr == nil || lv < v {
			v = lv
		}
	}
	if v > rq.minV {
		rq.minV = v
	}
}

// CFS is the simulated Completely Fair Scheduler: the native weighted
// fair queuing baseline every Enoki experiment compares against. Its
// balancing is sharded by scheduling domain: each CPU holds precomputed
// scan lists — LLC siblings, same-socket CPUs outside the LLC, and remote-
// socket CPUs — and every pull walks them inside-out; the idle-sibling
// search reads the same domains as masks against the kernel's idle set.
type CFS struct {
	k    *Kernel
	topo *core.Topology
	rqs  []cfsRq // one per CPU, in one slab
	// wait counts the entities waiting in the run-queue trees (the running
	// ones are not in a tree): wait[0] on the machine, then one per socket,
	// then one per LLC domain. It is kept at every tree insert and delete,
	// so a pull skips a scan level with too little waiting to steal from.
	// LLC domains nest in sockets, so a level's count is a difference of
	// two. The counts share one array so that keeping them costs one cache
	// line beside the run queue.
	wait        []int
	lastBalance []time.Duration // per-CPU busy stamp of last periodic balance
	nextBal     []int64
	tickCount   []int64

	// nodePeers[cpu] lists the rest of cpu's socket outside its LLC domain
	// (topo.Siblings), remotePeers[cpu] everything across sockets, both
	// ascending. Built once so the balance hot path never rescans the
	// whole machine testing domain membership.
	nodePeers   [][]int
	remotePeers [][]int
	// llcMask[d] is LLC domain d and nodeMask[n] socket n as CPU sets, which
	// the idle-sibling search ANDs with the kernel's idle set over the words
	// the machine occupies.
	llcMask  []CPUMask
	nodeMask []CPUMask
	words    int
}

var _ Class = (*CFS)(nil)

// NewCFS builds a CFS class for kernel k (one run queue per CPU), sharded
// over the kernel's scheduling domains.
func NewCFS(k *Kernel) *CFS { return newCFS(k, k.Topo()) }

// NewCFSFlat builds a CFS that sees the whole machine as one domain —
// load balancing and wake placement ignore sockets and caches (the kernel
// still charges the machine's real cross-node costs). This is the "flat"
// baseline the NUMA experiments compare topology-aware CFS against.
func NewCFSFlat(k *Kernel) *CFS { return newCFS(k, core.FlatTopology(k.NumCPUs())) }

func newCFS(k *Kernel, topo *core.Topology) *CFS {
	n, nw := k.NumCPUs(), 1+topo.NumNodes()+topo.NumDomains()
	// wait and the peer lists share one array. The CPUs of an LLC domain
	// share their peers outside it, built by the domain's first CPU.
	ints := make([]int, nw, nw+(topo.NumDomains()-1)*n)
	peers := ints[nw:]
	c := &CFS{
		k: k, topo: topo,
		rqs:         make([]cfsRq, n),
		lastBalance: make([]time.Duration, n),
		nextBal:     make([]int64, n),
		tickCount:   make([]int64, n),
		llcMask:     make([]CPUMask, topo.NumDomains()),
		nodeMask:    make([]CPUMask, topo.NumNodes()),
		wait:        ints[:nw:nw],
		words:       (n + 63) >> 6,
		nodePeers:   make([][]int, n),
		remotePeers: make([][]int, n),
	}
	for cpu := range c.rqs {
		rq := &c.rqs[cpu]
		rq.tree.Init(func(a, b int64) bool { return a < b })
		rq.node, rq.llc = 1+topo.NodeOf(cpu), 1+topo.NumNodes()+topo.DomainOf(cpu)
		c.llcMask[topo.DomainOf(cpu)].Set(cpu)
		c.nodeMask[topo.NodeOf(cpu)].Set(cpu)
		if first := topo.Siblings(cpu)[0]; first != cpu {
			c.nodePeers[cpu], c.remotePeers[cpu] = c.nodePeers[first], c.remotePeers[first]
			continue
		}
		for _, i := range topo.NodeCPUs(topo.NodeOf(cpu)) {
			if !topo.SameLLC(cpu, i) {
				peers = append(peers, i)
			}
		}
		c.nodePeers[cpu], peers = peers[:len(peers):len(peers)], peers[len(peers):]
		for i := 0; i < n; i++ {
			if !topo.SameNode(cpu, i) {
				peers = append(peers, i)
			}
		}
		c.remotePeers[cpu], peers = peers[:len(peers):len(peers)], peers[len(peers):]
	}
	return c
}

// Name implements Class.
func (c *CFS) Name() string { return "CFS" }

// OverheadPerCall implements Class: CFS is native, no framework overhead.
func (c *CFS) OverheadPerCall() time.Duration { return 0 }

func (c *CFS) ent(t *Task) *cfsEntity { return &t.cfs }

// TaskNew implements Class: a task entering CFS starts from a fresh entity.
func (c *CFS) TaskNew(t *Task) {
	t.cfs = cfsEntity{t: t, weight: WeightOf(t.Nice())}
}

// TaskDead implements Class: the kernel dequeued the task first.
func (c *CFS) TaskDead(t *Task) {}

// Detach implements Class.
func (c *CFS) Detach(t *Task) {}

// waiting adds d to the waiting counts of rq's LLC domain, socket and
// machine; it goes with every insert into or delete from rq's tree.
func (c *CFS) waiting(rq *cfsRq, d int) {
	c.wait[0] += d
	c.wait[rq.node] += d
	c.wait[rq.llc] += d
}

// updateCurr charges the running entity's execution since the last update to
// its vruntime.
func (c *CFS) updateCurr(cpu int) {
	rq := &c.rqs[cpu]
	e := rq.curr
	if e == nil {
		return
	}
	delta := e.t.SumExec() - e.prevSum
	if delta <= 0 {
		return
	}
	e.prevSum = e.t.SumExec()
	e.vruntime += int64(delta) * NICE0Load / e.weight
	rq.updateMinV()
}

// Enqueue implements Class.
func (c *CFS) Enqueue(cpu int, t *Task, wakeup bool) {
	rq := &c.rqs[cpu]
	e := c.ent(t)
	e.prevSum = t.SumExec()
	switch {
	case wakeup:
		// place_entity: sleepers get bounded credit so they run soon
		// but cannot monopolise after long sleeps.
		if v := rq.minV - cfsSleeperCreditNS; e.vruntime < v {
			e.vruntime = v
		}
	case !e.everRan:
		// START_DEBIT: a forked task starts one slice behind.
		e.everRan = true
		e.vruntime = rq.minV + c.vslice(rq, e)
	}
	rq.tree.InsertNode(&e.node, e.vruntime, e)
	c.waiting(rq, 1)
	rq.totalWeight += e.weight
	rq.updateMinV()
}

// Dequeue implements Class.
func (c *CFS) Dequeue(cpu int, t *Task, sleep bool) {
	rq := &c.rqs[cpu]
	e := c.ent(t)
	if rq.curr == e {
		c.updateCurr(cpu)
		rq.curr = nil
		rq.totalWeight -= e.weight
		rq.updateMinV()
		return
	}
	if e.node.Linked() {
		rq.tree.Delete(&e.node)
		c.waiting(rq, -1)
		rq.totalWeight -= e.weight
		rq.updateMinV()
	}
}

// Yield implements Class: charge runtime and requeue behind equal peers.
func (c *CFS) Yield(cpu int, t *Task) {
	c.putBack(cpu, t)
}

// PutPrev implements Class.
func (c *CFS) PutPrev(cpu int, t *Task, preempted bool) {
	c.putBack(cpu, t)
}

func (c *CFS) putBack(cpu int, t *Task) {
	rq := &c.rqs[cpu]
	e := c.ent(t)
	if rq.curr != e {
		return // task was never current here (already requeued)
	}
	c.updateCurr(cpu)
	rq.curr = nil
	rq.tree.InsertNode(&e.node, e.vruntime, e)
	c.waiting(rq, 1)
}

// PickNext implements Class: run the leftmost (lowest vruntime) entity.
func (c *CFS) PickNext(cpu int) *Task {
	rq := &c.rqs[cpu]
	if rq.curr != nil {
		// Shouldn't happen: kernel always puts prev before picking.
		return rq.curr.t
	}
	n := rq.tree.Min()
	if n == nil {
		return nil
	}
	e := n.Value()
	rq.tree.Delete(n)
	c.waiting(rq, -1)
	rq.curr = e
	e.prevSum = e.t.SumExec()
	e.lastPickSum = e.t.SumExec()
	return e.t
}

// period returns the fair-share period for nr runnable tasks.
func (c *CFS) period(nr int) time.Duration {
	if nr <= cfsNrLatency {
		return cfsTargetLatency
	}
	return time.Duration(nr) * cfsMinGranularity
}

// slice is the wall-clock slice the entity should get this period.
func (c *CFS) slice(rq *cfsRq, e *cfsEntity) time.Duration {
	tw := rq.totalWeight
	if tw <= 0 {
		tw = e.weight
	}
	s := time.Duration(int64(c.period(rq.nrTotal())) * e.weight / tw)
	if s < cfsMinGranularity {
		s = cfsMinGranularity
	}
	return s
}

// vslice is the slice converted to vruntime units.
func (c *CFS) vslice(rq *cfsRq, e *cfsEntity) int64 {
	return int64(c.slice(rq, e)) * NICE0Load / e.weight
}

// Tick implements Class: slice expiry plus the periodic load balancer.
func (c *CFS) Tick(cpu int, t *Task) {
	rq := &c.rqs[cpu]
	c.updateCurr(cpu)
	e := rq.curr
	if e != nil && rq.tree.Len() > 0 {
		ran := t.SumExec() - e.lastPickSum
		if ran >= c.slice(rq, e) {
			c.k.Resched(cpu)
		} else if left := rq.tree.Min(); left != nil {
			// Preempt if the leftmost waiter is far behind us.
			if e.vruntime-left.Value().vruntime > c.vslice(rq, e) {
				c.k.Resched(cpu)
			}
		}
	}
	c.tickCount[cpu]++
	if c.tickCount[cpu]%int64(cfsBalancePeriod/c.k.Costs().TickPeriod) == int64(cpu)%4 {
		c.periodicBalance(cpu)
	}
}

// CheckPreempt implements Class: wakeup preemption within CFS.
func (c *CFS) CheckPreempt(cpu int, woken *Task) {
	rq := &c.rqs[cpu]
	if rq.curr == nil {
		return
	}
	c.updateCurr(cpu)
	if c.ent(woken).vruntime+cfsWakeupGranNS < rq.curr.vruntime {
		c.k.Resched(cpu)
	}
}

// SelectRQ implements Class: prefer the previous CPU if idle, then an idle
// sibling inside-out — LLC domain first, then the rest of the socket — and
// only then fall back to the least-loaded allowed CPU (proximity breaking
// ties), so wake placement stays cache- and socket-local when it can.
func (c *CFS) SelectRQ(t *Task, prevCPU int, wakeup bool) int {
	n := len(c.rqs)
	if prevCPU < 0 || prevCPU >= n {
		prevCPU = 0
	}
	if wakeup && t.allowed.has(prevCPU) && c.idleCPU(prevCPU) {
		return prevCPU
	}
	// Idle sibling in the LLC domain, then the rest of the socket (searching
	// the whole socket is the same: any LLC sibling it could return, the LLC
	// search already has); with no CPU idle there is none to find.
	if c.k.nidle > 0 {
		if i := c.idleSibling(t, &c.llcMask[c.topo.DomainOf(prevCPU)]); i >= 0 {
			return i
		}
		if i := c.idleSibling(t, &c.nodeMask[c.topo.NodeOf(prevCPU)]); i >= 0 {
			return i
		}
	}
	if wakeup {
		// No idle sibling on the socket: stay put (wake_affine keeps
		// cache warmth and avoids a cross-node placement).
		if t.allowed.has(prevCPU) {
			return prevCPU
		}
	}
	// Fork/exec (or forbidden prev): least-loaded allowed CPU, scanned
	// inside-out so proximity to prev breaks load ties.
	best, bestLoad := -1, int64(0)
	scan := func(peers []int) {
		for _, i := range peers {
			if !t.allowed.has(i) {
				continue
			}
			load := c.rqs[i].totalWeight
			if c.k.CurrentOn(i) == nil && c.rqs[i].tree.Len() == 0 {
				load = 0
			}
			if best == -1 || load < bestLoad {
				best, bestLoad = i, load
			}
		}
	}
	scan(c.topo.Siblings(prevCPU))
	scan(c.nodePeers[prevCPU])
	scan(c.remotePeers[prevCPU])
	if best == -1 {
		return prevCPU
	}
	return best
}

func (c *CFS) idleCPU(cpu int) bool {
	return c.k.CurrentOn(cpu) == nil && c.rqs[cpu].tree.Len() == 0
}

// idleSibling returns the lowest CPU of dom that is idle, allowed for t and
// has nothing queued — the first hit of an ascending scan of dom — or -1.
// Only idle CPUs are visited.
func (c *CFS) idleSibling(t *Task, dom *CPUMask) int {
	idle := &c.k.idle
	for w := 0; w < c.words; w++ {
		for b := idle.bits[w] & dom.bits[w] & t.allowed.bits[w]; b != 0; b &= b - 1 {
			if i := w<<6 | bits.TrailingZeros64(b); c.rqs[i].tree.Len() == 0 {
				return i
			}
		}
	}
	return -1
}

// Balance implements Class: newidle balancing — when this CPU has no CFS
// work, pull one task, stealing inside the LLC domain first and escalating
// outward only past the per-level imbalance thresholds.
func (c *CFS) Balance(cpu int) {
	rq := &c.rqs[cpu]
	if rq.tree.Len() > 0 || rq.curr != nil {
		return
	}
	c.pullFrom(cpu, 1, cfsNUMAImbalance+1)
}

// periodicBalance evens out queue lengths across CPUs.
func (c *CFS) periodicBalance(cpu int) {
	rq := &c.rqs[cpu]
	c.pullFrom(cpu, rq.nrTotal()+2, rq.nrTotal()+cfsNUMAImbalance+2)
}

// pullFrom moves pullVictim's choice, if any, to cpu.
func (c *CFS) pullFrom(cpu, minLocal, minRemote int) {
	if e := c.pullVictim(cpu, minLocal, minRemote); e != nil {
		c.k.MoveTask(e.t, cpu)
	}
}

// pullVictim walks cpu's scan lists inside-out — LLC siblings, then the rest
// of the socket at +cfsLLCImbalance, then remote sockets at minRemote — and
// stops at the innermost level that yields an entity to pull. A cache-hot
// steal inside the LLC always beats a colder one further out, so socket
// crossings happen only when every nearer queue is balanced.
//
// A level is skipped unwalked when its peers hold fewer waiting entities in
// all than its threshold, which picks exactly what the walk would:
// victimWithin takes a peer only when nr > min, and nr is at most the peer's
// tree length plus its running task, so the peer alone holds min or more.
func (c *CFS) pullVictim(cpu, minLocal, minRemote int) *cfsEntity {
	rq := &c.rqs[cpu]
	llc, node := c.wait[rq.llc], c.wait[rq.node]
	if llc-rq.tree.Len() >= minLocal {
		if e := c.victimWithin(cpu, c.topo.Siblings(cpu), minLocal); e != nil {
			return e
		}
	}
	if node-llc >= minLocal+cfsLLCImbalance {
		if e := c.victimWithin(cpu, c.nodePeers[cpu], minLocal+cfsLLCImbalance); e != nil {
			return e
		}
	}
	if c.wait[0]-node >= minRemote {
		return c.victimWithin(cpu, c.remotePeers[cpu], minRemote)
	}
	return nil
}

// victimWithin picks the entity to pull to cpu from the busiest queue among
// peers whose runnable count exceeds min, or nil.
func (c *CFS) victimWithin(cpu int, peers []int, min int) *cfsEntity {
	busiest, busiestNr := -1, 0
	for _, i := range peers {
		if i == cpu {
			continue
		}
		nr := c.rqs[i].nrTotal()
		if nr > min && nr > busiestNr {
			busiest, busiestNr = i, nr
		}
	}
	if busiest == -1 {
		return nil
	}
	// Steal the entity with the highest vruntime (least urgent): walk to
	// the tree's last element.
	var victim *cfsEntity
	c.rqs[busiest].tree.Ascend(func(n *rbtree.Node[int64, *cfsEntity]) bool {
		if n.Value().t.allowed.has(cpu) {
			victim = n.Value()
		}
		return true
	})
	return victim
}

// Migrate implements Class: renormalise vruntime between queues so a task
// carries its relative (not absolute) progress.
func (c *CFS) Migrate(t *Task, src, dst int) {
	e := c.ent(t)
	e.vruntime = e.vruntime - c.rqs[src].minV + c.rqs[dst].minV
}

// PrioChanged implements Class.
func (c *CFS) PrioChanged(t *Task) {
	e := c.ent(t)
	old := e.weight
	e.weight = WeightOf(t.Nice())
	if e.node.Linked() || c.rqs[t.CPU()].curr == e {
		c.rqs[t.CPU()].totalWeight += e.weight - old
	}
}

// AffinityChanged implements Class: nothing cached beyond the mask.
func (c *CFS) AffinityChanged(t *Task) {}

// NRunnable implements Class.
func (c *CFS) NRunnable(cpu int) int { return c.rqs[cpu].tree.Len() }
