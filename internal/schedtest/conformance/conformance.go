// Package conformance is the cross-scheduler conformance harness: one
// table-driven rig that runs every scheduler class the repo ships — the five
// Enoki modules, the Arachne arbiter, and the native CFS baseline — through
// the same randomized (but seeded, hence reproducible) workloads and fault
// injections, asserting the invariants any correct scheduler must uphold:
//
//   - no lost wakeups: every spawned task makes progress and exits;
//   - no double-run: a task is never current on two CPUs at once, and a
//     running task's recorded CPU matches the CPU running it;
//   - no leaks: the kernel's task table drains to zero;
//   - rehome-to-CFS completeness: if the module is killed by the fault
//     layer, every one of its tasks finishes under the fallback class.
//
// It lives in a subpackage so internal/enokic's in-package tests can keep
// importing internal/schedtest without a cycle.
package conformance

import (
	"fmt"
	"time"

	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/sched/arbiter"
	"enoki/internal/sched/fifo"
	"enoki/internal/sched/locality"
	"enoki/internal/sched/nest"
	"enoki/internal/sched/shinjuku"
	"enoki/internal/sched/wfq"
	"enoki/internal/sim"
	"enoki/internal/vpol"
)

// Policy ids: the module under test registers above CFS, like the
// experiment rigs; a verified-tier program (Case.Verified) registers above
// both, the fast-lane position it holds in real deployments.
const (
	PolicyCFS      = 0
	PolicyTest     = 1
	PolicyVerified = 2
)

// Case describes one scheduler class under conformance test.
type Case struct {
	// Name identifies the class in test output.
	Name string
	// NewModule builds the Enoki module, or is nil for the native CFS
	// baseline (which has no module and cannot fault).
	NewModule func(env core.Env, ncpus int) core.Scheduler
	// SupportsHints marks modules whose RegisterQueue accepts a queue, so
	// hint-path cases (queue-lie injection) know where they apply.
	SupportsHints bool
	// Verified, when non-nil, additionally mounts this bytecode program as
	// a verified-tier class under PolicyVerified; Workload then routes
	// every third task through it, so the same invariants cover the
	// interpreter's enqueue/pick path and its coexistence with the tiers
	// below.
	Verified *vpol.Program
}

// Cases lists all seven scheduler classes.
func Cases() []Case {
	return []Case{
		{Name: "cfs"},
		{Name: "fifo", NewModule: func(env core.Env, _ int) core.Scheduler {
			return fifo.New(env, PolicyTest)
		}},
		{Name: "wfq", NewModule: func(env core.Env, _ int) core.Scheduler {
			return wfq.New(env, PolicyTest)
		}},
		{Name: "shinjuku", NewModule: func(env core.Env, _ int) core.Scheduler {
			return shinjuku.New(env, PolicyTest, shinjuku.DefaultSlice)
		}},
		{Name: "arbiter", NewModule: func(env core.Env, ncpus int) core.Scheduler {
			managed := make([]int, 0, ncpus-1)
			for c := 1; c < ncpus; c++ {
				managed = append(managed, c)
			}
			return arbiter.New(env, PolicyTest, managed)
		}, SupportsHints: true},
		{Name: "nest", NewModule: func(env core.Env, _ int) core.Scheduler {
			return nest.New(env, PolicyTest)
		}},
		{Name: "locality", NewModule: func(env core.Env, _ int) core.Scheduler {
			return locality.New(env, PolicyTest)
		}, SupportsHints: true},
	}
}

// Rig is one conformance machine: the case's class loaded above CFS.
type Rig struct {
	K *kernel.Kernel
	// Adapter is nil for the CFS baseline.
	Adapter *enokic.Adapter
	// Policy is the class workload tasks spawn into.
	Policy int
	// Verified is the mounted verified-tier class, nil unless the case
	// carries a bytecode program.
	Verified *vpol.Class
}

// NewRig builds the machine for c on the paper's 8-core box. cfg tunes the
// adapter (fault budgets, watchdog window); wrap, when non-nil, interposes a
// fault injector between the adapter and the module. Both are ignored for
// the CFS baseline.
func NewRig(c Case, cfg enokic.Config, wrap func(core.Scheduler) core.Scheduler) *Rig {
	return NewRigOn(c, kernel.Machine8(), cfg, wrap)
}

// NewRigOn is NewRig on an explicit machine, for conformance runs that need
// real topology (the NUMA suite uses Machine80's two sockets).
func NewRigOn(c Case, m kernel.Machine, cfg enokic.Config, wrap func(core.Scheduler) core.Scheduler) *Rig {
	return Mount(c, kernel.New(sim.New(), m, kernel.CostsFor(m)), cfg, wrap)
}

// Mount loads c's class above CFS on an existing kernel — the per-kernel
// step every rig shares: the single-machine rigs, each shard of a sharded
// rig, each shard of every machine in the chaos fleet.
func Mount(c Case, k *kernel.Kernel, cfg enokic.Config, wrap func(core.Scheduler) core.Scheduler) *Rig {
	r := &Rig{K: k, Policy: PolicyCFS}
	if c.Verified != nil {
		vc, err := vpol.Load(k, PolicyVerified, c.Verified, vpol.Config{Fallback: PolicyCFS})
		if err != nil {
			panic(fmt.Sprintf("conformance: verified load: %v", err))
		}
		r.Verified = vc
	}
	if c.NewModule != nil {
		r.Adapter = enokic.Load(k, PolicyTest, cfg, func(env core.Env) core.Scheduler {
			s := c.NewModule(env, k.NumCPUs())
			if wrap != nil {
				s = wrap(s)
			}
			return s
		})
		r.Policy = PolicyTest
	}
	k.RegisterClass(PolicyCFS, kernel.NewCFS(k))
	return r
}

// Violation is one invariant breach the checker observed.
type Violation struct {
	At   ktime.Time
	What string
}

func (v Violation) String() string { return fmt.Sprintf("t=%v: %s", time.Duration(v.At), v.What) }

// Checker watches kernel-level invariants while a workload runs: an engine
// event fires every Period of virtual time and cross-checks every CPU's
// current task. Violations accumulate for the test to assert on.
type Checker struct {
	r          *Rig
	Violations []Violation
	stop       bool
}

// StartChecker installs an invariant checker sampling every period.
func StartChecker(r *Rig, period time.Duration) *Checker {
	ch := &Checker{r: r}
	eng := r.K.Engine()
	var tick func()
	tick = func() {
		if ch.stop {
			return
		}
		ch.check()
		eng.Post(period, tick)
	}
	eng.Post(period, tick)
	return ch
}

// Stop ends the periodic checks (lets RunUntilIdle drain).
func (ch *Checker) Stop() { ch.stop = true }

func (ch *Checker) check() {
	k := ch.r.K
	now := k.Now()
	seen := make(map[*kernel.Task]int, k.NumCPUs())
	for cpu := 0; cpu < k.NumCPUs(); cpu++ {
		t := k.CurrentOn(cpu)
		if t == nil {
			continue
		}
		if prev, dup := seen[t]; dup {
			ch.Violations = append(ch.Violations, Violation{now,
				fmt.Sprintf("double-run: %s current on CPU %d and %d", t, prev, cpu)})
		}
		seen[t] = cpu
		if t.State() != kernel.StateRunning {
			ch.Violations = append(ch.Violations, Violation{now,
				fmt.Sprintf("current task %s on CPU %d not in running state", t, cpu)})
		}
		if t.CPU() != cpu {
			ch.Violations = append(ch.Violations, Violation{now,
				fmt.Sprintf("cpu mismatch: %s current on CPU %d but records CPU %d", t, cpu, t.CPU())})
		}
		if !t.Allowed().Has(cpu) {
			ch.Violations = append(ch.Violations, Violation{now,
				fmt.Sprintf("affinity breach: %s running on forbidden CPU %d", t, cpu)})
		}
	}
}

// Workload is the randomized task mix one conformance run drives: a seeded
// blend of sleepers (wakeup-dependent progress), spinners (tick/preemption
// pressure), and yielders, plus nice/affinity churn at random virtual times.
// Everything derives from Seed, so a run is reproducible bit-for-bit.
type Workload struct {
	Seed  uint64
	Tasks int
	// Churn enables random SetNice/SetAffinity while the workload runs.
	Churn bool
	// Budget bounds the virtual run time (default 2 s — far beyond what a
	// healthy class needs, so hitting it means tasks lost progress). A
	// bounded run, not RunUntilIdle, keeps periodic checker events from
	// blocking the drain and keeps lost-wakeup failures finite.
	Budget time.Duration
}

// Run spawns the workload on r, runs the simulation for the budget, and
// returns how many tasks completed (out of w.Tasks).
func (w Workload) Run(r *Rig) int {
	if w.Budget == 0 {
		w.Budget = 2 * time.Second
	}
	done := w.Spawn(r)
	r.K.RunFor(w.Budget)
	return done()
}

// Spawn creates the workload's tasks and churn events on r without running
// the simulation; the returned function reports how many tasks have
// completed so far. Sharded rigs use it to populate every shard before the
// executor — not the individual engines — drives the run.
func (w Workload) Spawn(r *Rig) func() int {
	k := r.K
	rand := ktime.NewRand(w.Seed)
	completed := 0
	tasks := make([]*kernel.Task, 0, w.Tasks)
	for i := 0; i < w.Tasks; i++ {
		policy := r.Policy
		if r.Verified != nil && i%3 == 2 {
			policy = PolicyVerified
		}
		var b kernel.Behavior
		switch rand.Intn(3) {
		case 0: // sleeper: progress requires every wakeup to arrive
			iters := 20 + rand.Intn(30)
			run := time.Duration(20+rand.Intn(200)) * time.Microsecond
			sleep := time.Duration(30+rand.Intn(300)) * time.Microsecond
			b = Loop(iters, run, kernel.OpSleep, sleep)
		case 1: // spinner: long segments, exercises tick + preemption
			iters := 3 + rand.Intn(5)
			run := time.Duration(1+rand.Intn(4)) * time.Millisecond
			b = Loop(iters, run, kernel.OpContinue, 0)
		default: // yielder: hammers the yield/requeue path
			iters := 30 + rand.Intn(50)
			run := time.Duration(10+rand.Intn(100)) * time.Microsecond
			b = Loop(iters, run, kernel.OpYield, 0)
		}
		t := k.Spawn(fmt.Sprintf("w%d", i), policy, b,
			kernel.WithExitObserver(func() { completed++ }))
		tasks = append(tasks, t)
	}
	if w.Churn {
		// Random nice and affinity changes from external context while the
		// workload runs, at seeded virtual times.
		eng := k.Engine()
		ncpus := k.NumCPUs()
		for i := 0; i < w.Tasks; i++ {
			t := tasks[i]
			at := time.Duration(1+rand.Intn(20)) * time.Millisecond
			nice := rand.Intn(7) - 3
			cpu := rand.Intn(ncpus)
			eng.Post(at, func() {
				if t.State() == kernel.StateDead {
					return
				}
				k.SetNice(t, nice)
				k.SetAffinity(t, kernel.SingleCPU(cpu))
			})
			back := at + time.Duration(1+rand.Intn(10))*time.Millisecond
			eng.Post(back, func() {
				if t.State() == kernel.StateDead {
					return
				}
				k.SetAffinity(t, kernel.AllCPUs(ncpus))
			})
		}
	}
	return func() int { return completed }
}

// Loop builds an iters-cycle behavior: run a segment, then apply op
// (OpSleep uses sleepFor), then exit after the last cycle.
func Loop(iters int, run time.Duration, op kernel.Op, sleepFor time.Duration) kernel.Behavior {
	n := 0
	return kernel.BehaviorFunc(func(*kernel.Kernel, *kernel.Task) kernel.Action {
		n++
		if n > iters {
			return kernel.Action{Op: kernel.OpExit}
		}
		return kernel.Action{Run: run, Op: op, SleepFor: sleepFor}
	})
}
