package main

import (
	"math/rand"
	"time"

	"enoki"
)

const (
	tickCPUs = 80
	// One pinned sleeper per sleeperEvery CPUs.
	sleeperEvery = 8
)

// tickInput saturates Machine80: two pinned spinners per CPU, so every tick
// sees a backlog and CFS preempts by vruntime, plus a pinned sleeper per eight
// CPUs for wake traffic. Nothing here crosses a shard or a framework.
type tickInput struct {
	nice    [tickCPUs][2]int
	periods [tickCPUs / sleeperEvery]time.Duration
	virtual time.Duration
}

func tickWorkload() workload {
	return workload{Name: "tick_saturated", Op: "simulated CPU-millisecond",
		Why: "tick, preemption, CFS vruntime and timer re-arms dominate; zero crossings, spawns and cross-shard messages, so it is also the clean differencing case for the sharded executor",
		New: func(seed uint64, sz size) func(*tracer) rig {
			in := genTick(seed, sz)
			return func(tr *tracer) rig { return buildTick(in, tr) }
		},
		Rung: func(seed uint64, sz size) func() rig {
			in := genTick(seed, sz)
			return func() rig { return buildTickStandalone(in) }
		}}
}

// genTick draws the spinners' nice values (-5..5) and the sleepers' sleep
// periods (300-500 µs).
func genTick(seed uint64, sz size) *tickInput {
	rng := rand.New(rand.NewSource(int64(seed)))
	in := &tickInput{virtual: sz.TickVirtual}
	for cpu := range in.nice {
		in.nice[cpu] = [2]int{rng.Intn(11) - 5, rng.Intn(11) - 5}
	}
	for i := range in.periods {
		in.periods[i] = 300*time.Microsecond + time.Duration(rng.Intn(200_001))
	}
	return in
}

// tickRig is the sharded machine; the standalone rung reuses it with one
// unsharded System per node.
type tickRig struct {
	in      *tickInput
	systems []*enoki.System
	tasks   []*enoki.Task
	wakes   []uint64 // per sleeper
	lat     *exactHist
}

func buildTick(in *tickInput, tr *tracer) *tickRig {
	sys := enoki.NewSystem(enoki.WithMachine(enoki.Machine80()), enoki.WithShards(0))
	registerCFS(sys, tr)
	r := newTickRig(in, sys)
	base := 0
	for _, k := range shardKernels(sys) {
		r.spawnNode(k, base)
		base += k.NumCPUs()
	}
	return r
}

// buildTickStandalone is the differencing rung for the sharded executor: the
// same two nodes, each as its own unsharded System carrying the full
// machine's cost table, run back to back.
func buildTickStandalone(in *tickInput) *tickRig {
	m := enoki.Machine80()
	perNode := m.NumCPUs / m.NumNodes
	r := newTickRig(in)
	for node := 0; node < m.NumNodes; node++ {
		sys := enoki.NewSystem(
			enoki.WithMachine(enoki.MachineNUMA("node", 1, 4, perNode/4)),
			enoki.WithCosts(enoki.CostsFor(m)))
		sys.RegisterCFS(policyCFS)
		r.systems = append(r.systems, sys)
		r.spawnNode(sys.Kernel(), node*perNode)
	}
	return r
}

func newTickRig(in *tickInput, systems ...*enoki.System) *tickRig {
	return &tickRig{in: in, systems: systems, lat: newExactHist(1 << 17),
		wakes: make([]uint64, len(in.periods))}
}

// spawnNode loads one node's kernel; base is the machine-wide id of its CPU 0.
func (r *tickRig) spawnNode(k *enoki.Kernel, base int) {
	spin := enoki.BehaviorFunc(func(*enoki.Kernel, *enoki.Task) enoki.Action {
		return enoki.Action{Run: 10 * time.Millisecond, Op: enoki.OpContinue}
	})
	for cpu := 0; cpu < k.NumCPUs(); cpu++ {
		pin := enoki.WithAffinity(enoki.SingleCPU(cpu))
		for _, nice := range r.in.nice[base+cpu] {
			r.tasks = append(r.tasks, k.Spawn("spin", policyCFS, spin, pin, enoki.WithNice(nice)))
		}
		if (base+cpu)%sleeperEvery == 0 {
			si := (base + cpu) / sleeperEvery
			period := r.in.periods[si]
			r.tasks = append(r.tasks, k.Spawn("sleep", policyCFS,
				enoki.BehaviorFunc(func(*enoki.Kernel, *enoki.Task) enoki.Action {
					return enoki.Action{Run: 100 * time.Microsecond, Op: enoki.OpSleep, SleepFor: period}
				}), pin,
				enoki.WithWakeObserver(func(d time.Duration) {
					r.wakes[si]++
					r.lat.add(int64(d))
				})))
		}
	}
}

func (r *tickRig) Run() {
	for _, sys := range r.systems {
		sys.Run(r.in.virtual)
	}
}

func (r *tickRig) Check() outcome {
	o := outcome{Counters: make(map[string]float64)}
	o.Ops = tickCPUs * uint64(r.in.virtual/time.Millisecond)
	d := newDigest()
	var ks []*enoki.Kernel
	for _, sys := range r.systems {
		ks = append(ks, shardKernels(sys)...)
	}
	for _, k := range ks {
		d.kernel(k)
	}
	var exec time.Duration
	for _, t := range r.tasks {
		exec += t.SumExec()
		d.word(uint64(t.SumExec()))
	}
	// Saturated means the CPUs ran tasks most of the time; the rest is tick,
	// switch and wake overhead, and the idle start.
	if capacity := tickCPUs * r.in.virtual; exec < capacity*3/4 {
		o.fail(o.Ops, "tasks ran %v of %v CPU time: the machine was not saturated", exec, capacity)
	}
	for si, n := range r.wakes {
		// A sleeper behind a spinner may wait out a slice per wake, so only a
		// sleeper that barely ran is an error.
		if min := uint64(r.in.virtual / (20 * time.Millisecond)); n < min {
			o.fail(1, "sleeper %d woke %d times, want at least %d", si, n, min)
		}
		d.word(n)
	}
	d.word(r.lat.count, r.lat.sum)
	o.Digest = d.sum()
	o.P50 = time.Duration(r.lat.quantile(0.50))
	o.P99 = time.Duration(r.lat.quantile(0.99))
	o.Samples = r.lat.count
	o.Ctx, o.Events = kernelCounters(o.Counters, ks...)
	o.Counters["kernel.tasks_spawned"] = float64(len(r.tasks))
	if sk := r.systems[0].Sharded(); sk != nil {
		ex := sk.Executor()
		o.Counters["sharded.epochs"] = float64(ex.Epochs())
		o.Counters["sharded.msgs"] = float64(ex.MsgsSent())
		o.Counters["sharded.cross_wakes"] = float64(sk.CrossWakes())
		if ex.MsgsSent() != 0 {
			o.fail(1, "%d cross-shard messages on a pinned workload", ex.MsgsSent())
		}
	}
	for _, sys := range r.systems {
		_ = sys.Close() // first Close of a System this rig built cannot fail
	}
	return o
}
