package core

// Topology is the scheduling-domain view of the machine a module (and the
// kernel's own balancers) sees: CPUs grouped into LLC domains, LLC domains
// grouped into NUMA nodes (sockets). It is immutable after construction and
// shared — callers must treat every returned slice as read-only.
//
// Distances follow the Linux sched-domain convention collapsed to three
// levels: 0 inside an LLC domain (cache-hot migration), 1 across LLC domains
// on one socket (cache-cold but memory-local), 2 across sockets (the
// paper-style cross-NUMA cost every balancer should escalate to only under
// real imbalance).
type Topology struct {
	numCPUs  int
	nodeOf   []int
	llcOf    []int
	numNodes int
	numLLCs  int
	// llcCPUs[d] lists the CPUs of LLC domain d in ascending order;
	// nodeCPUs[n] likewise per node.
	llcCPUs  [][]int
	nodeCPUs [][]int
}

// Topology distance levels.
const (
	// DistSameLLC: the CPUs share a last-level cache.
	DistSameLLC = 0
	// DistSameNode: same socket, different LLC domain.
	DistSameNode = 1
	// DistCrossNode: different sockets.
	DistCrossNode = 2
)

// NewTopology builds a topology from per-CPU node and LLC-domain maps.
// llcOf may be nil, in which case each node is one LLC domain (a monolithic
// cache per socket). Domain and node ids must be dense, starting at 0.
func NewTopology(nodeOf, llcOf []int) *Topology {
	n := len(nodeOf)
	if llcOf == nil {
		llcOf = nodeOf
	}
	if len(llcOf) != n {
		panic("core: NewTopology llcOf/nodeOf length mismatch")
	}
	t := &Topology{
		numCPUs: n,
		nodeOf:  append([]int(nil), nodeOf...),
		llcOf:   append([]int(nil), llcOf...),
	}
	for cpu := 0; cpu < n; cpu++ {
		if nd := nodeOf[cpu]; nd >= t.numNodes {
			t.numNodes = nd + 1
		}
		if d := llcOf[cpu]; d >= t.numLLCs {
			t.numLLCs = d + 1
		}
	}
	t.llcCPUs = groupCPUs(llcOf, t.numLLCs)
	t.nodeCPUs = groupCPUs(nodeOf, t.numNodes)
	return t
}

// groupCPUs lists the CPUs of each of groups groups in ascending order,
// carved from one array, given each CPU's group.
func groupCPUs(groupOf []int, groups int) [][]int {
	lists := make([][]int, groups)
	cpus := make([]int, 0, len(groupOf))
	for g := range lists {
		for cpu, of := range groupOf {
			if of == g {
				cpus = append(cpus, cpu)
			}
		}
		lists[g], cpus = cpus[:len(cpus):len(cpus)], cpus[len(cpus):]
	}
	return lists
}

// FlatTopology returns an n-CPU topology with a single node and a single
// LLC domain: every CPU is distance 0 from every other. It is the replay
// default and the "flat" baseline the NUMA experiments compare against.
func FlatTopology(n int) *Topology {
	return NewTopology(make([]int, n), nil)
}

// NumCPUs returns the machine's CPU count.
func (t *Topology) NumCPUs() int { return t.numCPUs }

// NumNodes returns the number of NUMA nodes (sockets).
func (t *Topology) NumNodes() int { return t.numNodes }

// NumDomains returns the number of LLC domains.
func (t *Topology) NumDomains() int { return t.numLLCs }

// DomainOf returns the LLC domain id of cpu.
func (t *Topology) DomainOf(cpu int) int { return t.llcOf[cpu] }

// NodeOf returns the NUMA node id of cpu.
func (t *Topology) NodeOf(cpu int) int { return t.nodeOf[cpu] }

// SameLLC reports whether two CPUs share a last-level cache domain.
func (t *Topology) SameLLC(a, b int) bool { return t.llcOf[a] == t.llcOf[b] }

// SameNode reports whether two CPUs share a NUMA node.
func (t *Topology) SameNode(a, b int) bool { return t.nodeOf[a] == t.nodeOf[b] }

// Distance returns the scheduling distance between two CPUs: DistSameLLC,
// DistSameNode, or DistCrossNode.
func (t *Topology) Distance(a, b int) int {
	switch {
	case t.llcOf[a] == t.llcOf[b]:
		return DistSameLLC
	case t.nodeOf[a] == t.nodeOf[b]:
		return DistSameNode
	default:
		return DistCrossNode
	}
}

// DomainCPUs returns the CPUs of LLC domain d in ascending order. The slice
// is shared; callers must not mutate it.
func (t *Topology) DomainCPUs(d int) []int { return t.llcCPUs[d] }

// NodeCPUs returns the CPUs of node n in ascending order (read-only).
func (t *Topology) NodeCPUs(n int) []int { return t.nodeCPUs[n] }

// Siblings returns cpu's LLC-domain siblings, cpu included, in ascending
// order (read-only). Modules use this for cache-aware spill decisions.
func (t *Topology) Siblings(cpu int) []int { return t.llcCPUs[t.llcOf[cpu]] }
