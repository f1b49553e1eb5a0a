package cluster

// Placer is the placement policy of the cluster job scheduler: given a job
// and the control plane's view of the fleet, pick the machine the job should
// run on, or -1 when no machine can take it. Pick runs on the control-plane
// engine, so implementations may keep state without locking — but they must
// be deterministic functions of the job and the view, because placement
// decisions feed the record logs the determinism suite compares byte for
// byte.
type Placer interface {
	Name() string
	Pick(j *Job, view []MachineView) int
}

// RoundRobin rotates over alive machines in id order.
type RoundRobin struct{ next int }

// Name implements Placer.
func (p *RoundRobin) Name() string { return "roundrobin" }

// Pick returns the next alive machine after the previous pick.
func (p *RoundRobin) Pick(_ *Job, view []MachineView) int {
	n := len(view)
	for i := 0; i < n; i++ {
		m := (p.next + i) % n
		if view[m].Alive {
			p.next = (m + 1) % n
			return m
		}
	}
	return -1
}

// LeastLoaded picks the alive machine with the fewest assigned jobs per CPU
// (cross-multiplied, so heterogeneous fleets compare without floats); ties
// break toward the lowest machine id. Pick scans the view; a cluster whose
// placer is LeastLoaded{} never calls it, and answers from its loadIndex,
// which keeps the same order up to date as the view changes.
type LeastLoaded struct{}

// Name implements Placer.
func (LeastLoaded) Name() string { return "leastloaded" }

// Pick returns the least-loaded alive machine.
func (LeastLoaded) Pick(_ *Job, view []MachineView) int {
	best := -1
	for m := range view {
		if view[m].Alive && (best == -1 || lessLoaded(&view[m], &view[best])) {
			best = m
		}
	}
	return best
}

// lessLoaded reports whether a carries fewer assigned jobs per CPU than b.
func lessLoaded(a, b *MachineView) bool { return a.Assigned*b.CPUs < b.Assigned*a.CPUs }

// loadIndex is a tournament tree over the control plane's machine views:
// every inner node holds the winner of its two subtrees in LeastLoaded's
// order — an alive machine before a dead one, then fewer jobs per CPU, then
// the lower id, which is the left subtree's — so the root is what
// LeastLoaded.Pick returns, and a dead machine when none is alive. A change
// to one view replays its leaf-to-root path: O(log machines) per assignment
// instead of a scan of the fleet per placement.
type loadIndex struct {
	view []MachineView
	win  []int32 // win[1] is the root, win[n+m] machine m, -1 a padding leaf
	n    int     // leaves, a power of two
}

func newLoadIndex(view []MachineView) loadIndex {
	n := 1
	for n < len(view) {
		n *= 2
	}
	x := loadIndex{view: view, win: make([]int32, 2*n), n: n}
	for i := n; i < 2*n; i++ {
		x.win[i] = -1
		if m := i - n; m < len(view) {
			x.win[i] = int32(m)
		}
	}
	for i := n - 1; i >= 1; i-- {
		x.win[i] = x.winner(x.win[2*i], x.win[2*i+1])
	}
	return x
}

// winner plays a, from the left subtree, against b, from the right.
func (x *loadIndex) winner(a, b int32) int32 {
	if b < 0 || !x.view[b].Alive {
		return a
	}
	if a < 0 || !x.view[a].Alive || lessLoaded(&x.view[b], &x.view[a]) {
		return b
	}
	return a
}

// fix replays machine m's path after its view changed.
func (x *loadIndex) fix(m int) {
	for i := (x.n + m) / 2; i >= 1; i /= 2 {
		x.win[i] = x.winner(x.win[2*i], x.win[2*i+1])
	}
}

// least returns LeastLoaded's pick: the least-loaded alive machine, or -1.
func (x *loadIndex) least() int {
	if m := x.win[1]; m >= 0 && x.view[m].Alive {
		return int(m)
	}
	return -1
}

// Pack fills machines first-fit in id order up to PerCPU assigned jobs per
// CPU, spilling to the least-loaded machine when every machine is at
// capacity. It concentrates load on a prefix of the fleet — the placement
// policy that makes rebalancing migrations interesting.
type Pack struct {
	// PerCPU is the soft capacity in assigned jobs per CPU; zero means 2.
	PerCPU int
}

// Name implements Placer.
func (p *Pack) Name() string { return "pack" }

// Pick returns the first alive machine under capacity.
func (p *Pack) Pick(j *Job, view []MachineView) int {
	per := p.PerCPU
	if per <= 0 {
		per = 2
	}
	for m := range view {
		v := &view[m]
		if v.Alive && v.Assigned < per*v.CPUs {
			return m
		}
	}
	return LeastLoaded{}.Pick(j, view)
}

// PlacerByName maps a CLI name to a fresh placer instance; nil for unknown
// names.
func PlacerByName(name string) Placer {
	switch name {
	case "roundrobin":
		return &RoundRobin{}
	case "leastloaded":
		return LeastLoaded{}
	case "pack":
		return &Pack{}
	}
	return nil
}
