package kernel

import (
	"testing"

	"enoki/internal/core"
	"enoki/internal/ktime"
	"enoki/internal/sim"
)

// idleShapes are the topologies the idle-set differential tests cover: the
// two-socket Machine80, one 100-CPU node of Machine1000 (an LLC domain
// straddles a mask word) and a flat 80-CPU machine, each under
// topology-aware CFS, plus Machine80 under flat CFS.
var idleShapes = []struct {
	name string
	m    Machine
	flat bool
}{
	{"m80", Machine80(), false},
	{"m1000-node", subMachine(Machine1000(), 3, 300, 400), false},
	{"flat80", MachineNUMA("flat", 1, 1, 80), false},
	{"m80-flatcfs", Machine80(), true},
}

// nohzScan is the NOHZ target search as it was before the idle set: walk
// every other CPU in rotation order from from+1, reading its current task.
func nohzScan(k *Kernel, from int) int {
	n := k.machine.NumCPUs
	best, bestDist := -1, 0
	for i := 1; i < n; i++ {
		cpu := (from + i) % n
		if k.cpus[cpu].curr != nil {
			continue
		}
		d := k.topo.Distance(cpu, from)
		if d == core.DistSameLLC {
			best = cpu
			break
		}
		if best == -1 || d < bestDist {
			best, bestDist = cpu, d
		}
	}
	return best
}

// selectRQScan is CFS.SelectRQ as it was before the idle set: the
// idle-sibling search reads every LLC and socket peer in ascending order.
func selectRQScan(c *CFS, t *Task, prevCPU int, wakeup bool) int {
	n := len(c.rqs)
	if prevCPU < 0 || prevCPU >= n {
		prevCPU = 0
	}
	if wakeup && t.allowed.has(prevCPU) && c.idleCPU(prevCPU) {
		return prevCPU
	}
	for _, i := range c.topo.Siblings(prevCPU) {
		if t.allowed.has(i) && c.idleCPU(i) {
			return i
		}
	}
	for _, i := range c.nodePeers[prevCPU] {
		if t.allowed.has(i) && c.idleCPU(i) {
			return i
		}
	}
	if wakeup && t.allowed.has(prevCPU) {
		return prevCPU
	}
	best, bestLoad := -1, int64(0)
	for _, peers := range [][]int{c.topo.Siblings(prevCPU), c.nodePeers[prevCPU], c.remotePeers[prevCPU]} {
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
	if best == -1 {
		return prevCPU
	}
	return best
}

// idleRig is a kernel whose CPUs are made busy (a current task, never run)
// and queued (a CFS entity in the run queue) by hand, so the searches can be
// compared on any idle set without simulating how it arose.
type idleRig struct {
	k   *Kernel
	cfs *CFS
}

func newIdleRig(m Machine, flat bool) *idleRig {
	k := New(sim.New(), m, CostsFor(m))
	cfs := NewCFS(k)
	if flat {
		cfs = NewCFSFlat(k)
	}
	k.RegisterClass(testPolicyCFS, cfs)
	return &idleRig{k: k, cfs: cfs}
}

// dummy is a CFS task that never runs, allowed on every CPU.
func (r *idleRig) dummy(nice int) *Task {
	t := &Task{k: r.k, class: r.cfs, allowed: &r.k.allCPUs, nice: nice}
	r.cfs.TaskNew(t)
	return t
}

// randomize makes each CPU busy with probability pBusy and gives it a queued
// task with probability pQueued.
func (r *idleRig) randomize(rng *ktime.Rand, pBusy, pQueued float64) {
	for i := range r.k.cpus {
		var curr *Task
		if rng.Bernoulli(pBusy) {
			curr = r.dummy(0)
		}
		r.k.setCurr(&r.k.cpus[i], curr)
		for r.cfs.rqs[i].tree.Len() > 0 {
			r.cfs.Dequeue(i, r.cfs.rqs[i].tree.Min().Value().t, false)
		}
		if rng.Bernoulli(pQueued) {
			r.cfs.Enqueue(i, r.dummy(rng.Intn(11)-5), false)
		}
	}
}

// TestNearestIdleMatchesScan compares the NOHZ target taken from the idle set
// with the old rotation scan over seeded random idle sets, sparse to dense.
func TestNearestIdleMatchesScan(t *testing.T) {
	for _, s := range idleShapes {
		t.Run(s.name, func(t *testing.T) {
			r := newIdleRig(s.m, s.flat)
			rng := ktime.NewRand(0x1d1e5e7)
			n := s.m.NumCPUs
			kicks := 0
			for trial := 0; trial < 2000; trial++ {
				pBusy := []float64{1, 0.99, 0.95, 0.8, 0.5, 0.1}[trial%6]
				r.randomize(rng, pBusy, 0)
				from := rng.Intn(n)
				if got, want := r.k.nearestIdle(from), nohzScan(r.k, from); got != want {
					t.Fatalf("trial %d from cpu %d, %d idle: target %d, old scan %d", trial, from, r.k.nidle, got, want)
				}
				if r.k.nidle > 0 {
					kicks++
				}
			}
			if kicks == 0 {
				t.Fatal("no trial had an idle CPU")
			}
		})
	}
}

// TestSelectRQMatchesScan compares CFS placement through the idle set with
// the old peer scan over seeded random idle sets, queues, affinities and
// previous CPUs, for wakes and forks.
func TestSelectRQMatchesScan(t *testing.T) {
	for _, s := range idleShapes {
		t.Run(s.name, func(t *testing.T) {
			r := newIdleRig(s.m, s.flat)
			rng := ktime.NewRand(0x5e1ec7)
			n := s.m.NumCPUs
			for trial := 0; trial < 2000; trial++ {
				pBusy := []float64{1, 0.97, 0.9, 0.6, 0.2}[trial%5]
				r.randomize(rng, pBusy, 0.3)
				task := r.dummy(0)
				switch trial % 3 {
				case 1:
					m := SingleCPU(rng.Intn(n))
					task.allowed = &m
				case 2:
					var m CPUMask
					for i := 0; i < n; i++ {
						if rng.Bernoulli(0.4) {
							m.Set(i)
						}
					}
					task.allowed = &m
				}
				prev := rng.Intn(n+1) - 1 // -1: no previous CPU
				wakeup := rng.Bernoulli(0.5)
				if got, want := r.cfs.SelectRQ(task, prev, wakeup), selectRQScan(r.cfs, task, prev, wakeup); got != want {
					t.Fatalf("trial %d prev %d wakeup %v, %d idle: placed on %d, old scan %d",
						trial, prev, wakeup, r.k.nidle, got, want)
				}
			}
		})
	}
}

// pullVictimScan is CFS's pull choice as it was before the waiting counts:
// every level of peers is walked, nearest first, whether or not anything
// waits there.
func pullVictimScan(c *CFS, cpu, minLocal, minRemote int) *cfsEntity {
	if e := c.victimWithin(cpu, c.topo.Siblings(cpu), minLocal); e != nil {
		return e
	}
	if e := c.victimWithin(cpu, c.nodePeers[cpu], minLocal+cfsLLCImbalance); e != nil {
		return e
	}
	return c.victimWithin(cpu, c.remotePeers[cpu], minRemote)
}

// TestPullFromMatchesScan compares the pull that skips levels with nothing
// waiting with the full walk, for newidle and periodic balancing, over seeded
// random busy CPUs and queues from empty to crowded plus one hot queue, some
// of whose tasks are pinned so that a busiest queue can have nothing to give.
func TestPullFromMatchesScan(t *testing.T) {
	for _, s := range idleShapes {
		t.Run(s.name, func(t *testing.T) {
			r := newIdleRig(s.m, s.flat)
			rng := ktime.NewRand(0x9011f7)
			n := s.m.NumCPUs
			pulls := 0
			for trial := 0; trial < 2000; trial++ {
				pQueued := []float64{0, 0.005, 0.02, 0.1, 0.4, 0.9}[trial%6]
				r.randomize(rng, 0.7, pQueued)
				for cpu := 0; cpu < n; cpu++ {
					// A busy CPU's current task counts in its nr.
					r.cfs.rqs[cpu].curr = nil
					if curr := r.k.CurrentOn(cpu); curr != nil {
						r.cfs.rqs[cpu].curr = &curr.cfs
					}
					for j := 0; j < 2; j++ {
						if !rng.Bernoulli(pQueued) {
							continue
						}
						task := r.dummy(0)
						if rng.Bernoulli(0.3) {
							m := SingleCPU(cpu)
							task.allowed = &m
						}
						r.cfs.Enqueue(cpu, task, false)
					}
				}
				// One hot queue on a sparse machine puts a level's count
				// right at its threshold.
				hot := rng.Intn(n)
				for j := rng.Intn(6); j > 0; j-- {
					r.cfs.Enqueue(hot, r.dummy(0), false)
				}
				cpu := rng.Intn(n)
				minLocal, minRemote := 1, cfsNUMAImbalance+1 // newidle
				if trial%2 == 1 {
					nr := r.cfs.rqs[cpu].nrTotal() // periodic
					minLocal, minRemote = nr+2, nr+cfsNUMAImbalance+2
				}
				got, want := r.cfs.pullVictim(cpu, minLocal, minRemote), pullVictimScan(r.cfs, cpu, minLocal, minRemote)
				if got != want {
					t.Fatalf("trial %d cpu %d, %d waiting: pulls %p, full walk %p", trial, cpu, r.cfs.wait[0], got, want)
				}
				if got != nil {
					pulls++
				}
			}
			if pulls == 0 {
				t.Fatal("no trial found anything to pull")
			}
		})
	}
}
