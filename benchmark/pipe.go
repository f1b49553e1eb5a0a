package main

import (
	"math/rand"
	"time"

	"enoki"
)

// A rung is one way of scheduling the same ping-pong input. The two pipe
// workloads are rungs at full size; the ladder runs all five at a small size
// so their differences isolate the crossing and the interpreter.
type rung struct {
	Name   string
	Attach func(sys *enoki.System, tr *tracer) (policy int)
}

var (
	rungBuiltinCFS = rung{"builtin_cfs", func(sys *enoki.System, tr *tracer) int {
		registerCFS(sys, tr)
		return policyCFS
	}}
	// NewRT with every task at the default priority is a per-CPU FIFO: the
	// native floor the verified and module FIFOs are measured against.
	rungBuiltinFIFO = rung{"builtin_fifo", func(sys *enoki.System, tr *tracer) int {
		sys.MustAttach(policyTest, enoki.BuiltinClass(enoki.NewRT(sys.Kernel(), 0)))
		registerCFS(sys, tr)
		return policyTest
	}}
	rungVerifiedFIFO = rung{"verified_fifo", func(sys *enoki.System, tr *tracer) int {
		sys.MustAttach(policyTest, enoki.VerifiedProgram(enoki.VFIFOProgram()))
		registerCFS(sys, tr)
		return policyTest
	}}
	rungModuleFIFO = rung{"module_fifo", func(sys *enoki.System, tr *tracer) int {
		sys.MustAttach(policyTest, enoki.GoModule(traceScheduler(tr, func(env enoki.Env) enoki.Scheduler {
			return enoki.NewFIFOScheduler(env, policyTest)
		})))
		registerCFS(sys, tr)
		return policyTest
	}}
	rungModuleWFQ = rung{"module_wfq", func(sys *enoki.System, tr *tracer) int {
		sys.MustAttach(policyTest, enoki.GoModule(traceScheduler(tr, func(env enoki.Env) enoki.Scheduler {
			return enoki.NewWFQScheduler(env, policyTest)
		})))
		registerCFS(sys, tr)
		return policyTest
	}}
	ladderRungs = []rung{rungBuiltinCFS, rungBuiltinFIFO, rungVerifiedFIFO, rungModuleFIFO, rungModuleWFQ}
)

const (
	// Four same-core pairs and two cross-core pairs fill Machine8 with every
	// pair on CPUs of its own. Eight pairs would put tasks of two different
	// pairs on four of the CPUs, and that system has two attractors (context
	// switches per message 1 or 11/12, module allocations 2.01 or 1.84) which
	// the seed picks between: no steady number across seeds.
	sameCorePairs  = 4
	crossCorePairs = 2
	pipePairs      = sameCorePairs + crossCorePairs
	// workTable is how many per-message work values each task cycles through.
	workTable = 1024
)

// pipeInput is Table 3's perf-pipe ping-pong, six pairs at once on Machine8:
// four share a core each, two straddle two cores each.
type pipeInput struct {
	// cpus[p] is pair p's two CPUs (equal for a same-core pair).
	cpus [pipePairs][2]int
	// work[p][side] is that task's per-message userspace work, 200-400 ns.
	work [pipePairs][2][]time.Duration
	// msgs is messages per pair.
	msgs int
}

// genPipe places the pairs by a seeded permutation of the eight CPUs and draws
// each task's per-message work.
func genPipe(seed uint64, msgs int) *pipeInput {
	rng := rand.New(rand.NewSource(int64(seed)))
	in := &pipeInput{msgs: msgs}
	perm := rng.Perm(sameCorePairs + 2*crossCorePairs)
	for p := 0; p < sameCorePairs; p++ {
		in.cpus[p] = [2]int{perm[p], perm[p]}
	}
	for p := 0; p < crossCorePairs; p++ {
		in.cpus[sameCorePairs+p] = [2]int{perm[sameCorePairs+2*p], perm[sameCorePairs+2*p+1]}
	}
	for p := range in.work {
		for side := range in.work[p] {
			w := make([]time.Duration, workTable)
			for i := range w {
				w[i] = 200*time.Nanosecond + time.Duration(rng.Intn(201))
			}
			in.work[p][side] = w
		}
	}
	return in
}

func pipeWorkload(name string, r rung, msgs func(size) int, why string) workload {
	return workload{Name: name, Op: "message", Why: why,
		New: func(seed uint64, sz size) func(*tracer) rig {
			in := genPipe(seed, msgs(sz))
			return func(tr *tracer) rig { return buildPipe(in, r, tr) }
		}}
}

// pipeRig is one built ping-pong System.
type pipeRig struct {
	sys   *enoki.System
	ad    *enoki.Adapter
	pairs [pipePairs]*pipePair
	lat   *exactHist
}

// pipePair is the shared state of two ping-pong tasks. inbox counts messages
// sent to a side and not yet consumed; a task blocks with a Recheck on it
// (futex semantics), so no interleaving can lose a wakeup.
type pipePair struct {
	tasks     [2]*enoki.Task
	inbox     [2]int
	sent      [2]int
	delivered int
	msgs      int
	done      bool
	exited    int
}

func buildPipe(in *pipeInput, r rung, tr *tracer) *pipeRig {
	sys := enoki.NewSystem(enoki.WithMachine(enoki.Machine8()))
	policy := r.Attach(sys, tr)
	pr := &pipeRig{sys: sys, lat: newExactHist(1 << 17)}
	if ads := sys.Adapters(); len(ads) > 0 {
		pr.ad = ads[0]
	}
	k := sys.Kernel()
	for p := range pr.pairs {
		pp := &pipePair{msgs: in.msgs}
		pr.pairs[p] = pp
		for side := 0; side < 2; side++ {
			pp.tasks[side] = k.Spawn("pipe", policy, pp.behavior(side, in.work[p][side]),
				enoki.WithAffinity(enoki.SingleCPU(in.cpus[p][side])),
				enoki.WithWakeObserver(func(d time.Duration) { pr.lat.add(int64(d)) }),
				enoki.WithExitObserver(func() { pp.exited++ }))
		}
	}
	return pr
}

// behavior is one side of the ping-pong: consume a message, do the seeded
// work, send one back (wake the peer), block. Side 0 sends first. Whoever
// consumes the last message wakes the peer so both exit.
func (pp *pipePair) behavior(side int, work []time.Duration) enoki.Behavior {
	peer := 1 - side
	recheck := func() bool { return pp.inbox[side] > 0 || pp.done }
	send := func() enoki.Action {
		w := work[pp.sent[side]%len(work)]
		pp.sent[side]++
		pp.inbox[peer]++
		return enoki.Action{Run: w, Wake: pp.tasks[peer : peer+1], Op: enoki.OpBlock, Recheck: recheck}
	}
	started := false
	return enoki.BehaviorFunc(func(*enoki.Kernel, *enoki.Task) enoki.Action {
		switch {
		case pp.done:
			return enoki.Action{Op: enoki.OpExit}
		case !started && side == 0:
			started = true
			return send()
		case pp.inbox[side] == 0:
			started = true
			return enoki.Action{Op: enoki.OpBlock, Recheck: recheck}
		}
		started = true
		pp.inbox[side]--
		pp.delivered++
		if pp.delivered == pp.msgs {
			pp.done = true
			return enoki.Action{Wake: pp.tasks[peer : peer+1], Op: enoki.OpExit}
		}
		return send()
	})
}

func (pr *pipeRig) Run() { pr.sys.RunUntilIdle() }

func (pr *pipeRig) Check() outcome {
	k := pr.sys.Kernel()
	o := outcome{Counters: make(map[string]float64)}
	d := newDigest()
	for p, pp := range pr.pairs {
		o.Ops += uint64(pp.msgs)
		if pp.delivered != pp.msgs {
			o.fail(uint64(pp.msgs-pp.delivered), "pair %d delivered %d of %d messages", p, pp.delivered, pp.msgs)
		}
		if pp.exited != 2 {
			o.fail(1, "pair %d: %d of 2 tasks exited", p, pp.exited)
		}
		d.word(uint64(pp.delivered), uint64(pp.exited))
	}
	d.kernel(k)
	d.word(pr.lat.count, pr.lat.sum)
	o.Digest = d.sum()
	o.P50 = time.Duration(pr.lat.quantile(0.50))
	o.P99 = time.Duration(pr.lat.quantile(0.99))
	o.Samples = pr.lat.count
	o.Ctx, o.Events = kernelCounters(o.Counters, k)
	o.Counters["kernel.tasks_spawned"] = 2 * pipePairs
	o.Counters["virt.mean_wakeup_ns"] = float64(pr.lat.sum) / float64(pr.lat.count)
	if pr.ad != nil {
		st := pr.ad.Stats()
		o.Counters["enokic.msgs"] = float64(st.Messages)
		o.Counters["enokic.pnt_errs"] = float64(st.PntErrs)
		o.Counters["enokic.deferred"] = float64(st.Deferred)
		if pr.ad.Killed() {
			o.fail(o.Ops, "module was killed: %v", pr.ad.Failure())
		}
	}
	if vc := pr.sys.VerifiedClass(policyTest); vc != nil {
		o.Counters["vpol.hooks"] = float64(vc.Stats().Execs)
		if vc.Killed() {
			o.fail(o.Ops, "verified class trapped: %v", vc.Failure())
		}
	}
	return o
}
