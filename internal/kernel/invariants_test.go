package kernel

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"enoki/internal/ktime"
	"enoki/internal/sim"
)

// Property-based tests over random workloads: whatever the interleaving of
// spawns, sleeps, wakes, yields, priority changes, and affinity changes,
// the kernel must conserve tasks, keep accounting consistent, and stay
// deterministic.

// randomWorkload drives a kernel with a seeded mix of task behaviours and
// runtime mutations under topology-aware CFS (flat CFS when flat is set),
// returning a state fingerprint.
func randomWorkload(seed uint64, m Machine, flat bool) (fingerprint uint64, leaked int, panicked any) {
	defer func() { panicked = recover() }()
	eng := sim.New()
	k := New(eng, m, DefaultCosts())
	cfs := NewCFS(k)
	if flat {
		cfs = NewCFSFlat(k)
	}
	k.RegisterClass(0, cfs)
	rng := ktime.NewRand(seed)

	totalWork := time.Duration(0)
	exited := 0
	n := 4 + rng.Intn(12)
	var tasks []*Task
	for i := 0; i < n; i++ {
		segments := 3 + rng.Intn(20)
		segLen := rng.UniformDuration(20*time.Microsecond, 2*time.Millisecond)
		totalWork += time.Duration(segments) * segLen
		behavior := BehaviorFunc(func(k *Kernel, t *Task) Action {
			if segments == 0 {
				exited++
				return Action{Op: OpExit}
			}
			segments--
			switch rng.Intn(4) {
			case 0:
				return Action{Run: segLen, Op: OpContinue}
			case 1:
				return Action{Run: segLen, Op: OpYield}
			case 2:
				return Action{Run: segLen, Op: OpSleep,
					SleepFor: rng.UniformDuration(10*time.Microsecond, time.Millisecond)}
			default:
				return Action{Run: segLen, Op: OpBlock}
			}
		})
		opts := []SpawnOption{WithNice(rng.Intn(40) - 20)}
		if rng.Bernoulli(0.3) {
			opts = append(opts, WithAffinity(SingleCPU(rng.Intn(m.NumCPUs))))
		}
		tasks = append(tasks, k.Spawn("rand", 0, behavior, opts...))
	}

	// Period chaos: wake blocked tasks, change priorities and affinity.
	var chaos func()
	chaos = func() {
		for _, t := range tasks {
			if t.State() == StateBlocked && rng.Bernoulli(0.7) {
				k.Wake(t)
			}
			if t.State() != StateDead && rng.Bernoulli(0.1) {
				k.SetNice(t, rng.Intn(40)-20)
			}
			if t.State() != StateDead && rng.Bernoulli(0.05) {
				k.SetAffinity(t, AllCPUs(m.NumCPUs))
			}
		}
		eng.After(rng.UniformDuration(100*time.Microsecond, time.Millisecond), chaos)
	}
	eng.After(time.Millisecond, chaos)

	// Step the run event by event so the idle set and CFS's waiting counts
	// are checked after each.
	end := eng.Now().Add(2 * time.Second)
	for at, ok := eng.NextEventTime(); ok && at <= end; at, ok = eng.NextEventTime() {
		eng.Step()
		err := idleSetErr(k)
		if err == nil {
			err = cfsWaitErr(cfs)
		}
		if err != nil {
			panic(fmt.Sprintf("after event %d at %v: %v", eng.Fired(), eng.Now(), err))
		}
	}

	// Fingerprint: total executed time + busy + switches.
	var sumExec time.Duration
	for _, t := range tasks {
		sumExec += t.SumExec()
	}
	var busy time.Duration
	for c := 0; c < m.NumCPUs; c++ {
		busy += k.CPUBusy(c)
	}
	fp := uint64(sumExec) ^ uint64(busy)<<1 ^ k.CtxSwitches<<2 ^ uint64(exited)<<3
	return fp, k.NumTasks(), nil
}

// idleSetErr reports where the kernel's idle set disagrees with its CPUs: a
// CPU's bit must be set exactly when it has no current task, and the count
// must be the number of bits.
func idleSetErr(k *Kernel) error {
	for i := 0; i < k.NumCPUs(); i++ {
		if k.idle.has(i) != (k.CurrentOn(i) == nil) {
			return fmt.Errorf("cpu %d: idle bit %v, current task %v", i, k.idle.has(i), k.CurrentOn(i))
		}
	}
	if k.nidle != k.idle.Count() {
		return fmt.Errorf("idle count %d, %d bits set", k.nidle, k.idle.Count())
	}
	return nil
}

// cfsWaitErr reports where CFS's waiting counts disagree with its run
// queues: the count of each LLC domain, each socket and the machine must be
// the sum of its CPUs' tree lengths.
func cfsWaitErr(c *CFS) error {
	nodes := c.topo.NumNodes()
	want := make([]int, 1+nodes+c.topo.NumDomains())
	for cpu := range c.rqs {
		n := c.rqs[cpu].tree.Len()
		want[0] += n
		want[1+c.topo.NodeOf(cpu)] += n
		want[1+nodes+c.topo.DomainOf(cpu)] += n
	}
	if !slices.Equal(want, c.wait) {
		return fmt.Errorf("waiting counts (machine, sockets, LLC domains) %v, trees hold %v", c.wait, want)
	}
	return nil
}

func TestQuickNoTaskLostCFS(t *testing.T) {
	f := func(seed uint64) bool {
		fp, leaked, panicked := randomWorkload(seed, Machine8(), false)
		if panicked != nil {
			t.Logf("seed %d panicked: %v", seed, panicked)
			return false
		}
		_ = fp
		// All tasks must have exited: none stranded blocked forever
		// (chaos wakes blocked tasks repeatedly) or lost by the kernel.
		return leaked == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIdleSetMachine80 runs the random workload on the two-socket,
// two-mask-word Machine80, where affinity changes force running tasks across
// sockets; randomWorkload checks the idle set and CFS's waiting counts after
// every event.
func TestQuickIdleSetMachine80(t *testing.T) {
	f := func(seed uint64) bool {
		_, leaked, panicked := randomWorkload(seed, Machine80(), false)
		if panicked != nil {
			t.Logf("seed %d panicked: %v", seed, panicked)
		}
		return panicked == nil && leaked == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCFSWaitCountsFlat is the same run under flat CFS, whose one
// domain holds every CPU.
func TestQuickCFSWaitCountsFlat(t *testing.T) {
	f := func(seed uint64) bool {
		_, leaked, panicked := randomWorkload(seed, Machine80(), true)
		if panicked != nil {
			t.Logf("seed %d panicked: %v", seed, panicked)
		}
		return panicked == nil && leaked == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, _, p1 := randomWorkload(seed, Machine8(), false)
		b, _, p2 := randomWorkload(seed, Machine8(), false)
		return p1 == nil && p2 == nil && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBusyAtLeastExec(t *testing.T) {
	// CPU busy time includes task execution plus overheads, so total busy
	// must be >= total task execution and the work must all complete.
	f := func(seed uint64) bool {
		eng := sim.New()
		k := New(eng, Machine8(), DefaultCosts())
		k.RegisterClass(0, NewCFS(k))
		rng := ktime.NewRand(seed)
		var tasks []*Task
		want := time.Duration(0)
		for i := 0; i < 6; i++ {
			total := rng.UniformDuration(time.Millisecond, 20*time.Millisecond)
			want += total
			remaining := total
			tasks = append(tasks, k.Spawn("w", 0, BehaviorFunc(
				func(k *Kernel, t *Task) Action {
					if remaining <= 0 {
						return Action{Op: OpExit}
					}
					c := 500 * time.Microsecond
					if c > remaining {
						c = remaining
					}
					remaining -= c
					return Action{Run: c, Op: OpContinue}
				})))
		}
		k.RunFor(time.Second)
		var sumExec, busy time.Duration
		for _, task := range tasks {
			sumExec += task.SumExec()
		}
		for c := 0; c < 8; c++ {
			busy += k.CPUBusy(c)
		}
		return sumExec == want && busy >= sumExec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWorkConservation(t *testing.T) {
	// With fewer CPU-bound tasks than cores, every task should finish in
	// close to its own work time (no artificial serialisation).
	f := func(seed uint64) bool {
		eng := sim.New()
		k := New(eng, Machine8(), DefaultCosts())
		k.RegisterClass(0, NewCFS(k))
		rng := ktime.NewRand(seed)
		n := 1 + rng.Intn(7)
		work := rng.UniformDuration(5*time.Millisecond, 30*time.Millisecond)
		finish := make([]ktime.Time, n)
		for i := 0; i < n; i++ {
			i := i
			remaining := work
			k.Spawn("wc", 0, BehaviorFunc(func(k *Kernel, t *Task) Action {
				if remaining <= 0 {
					finish[i] = k.Now()
					return Action{Op: OpExit}
				}
				remaining -= time.Millisecond
				return Action{Run: time.Millisecond, Op: OpContinue}
			}))
		}
		k.RunFor(5 * work)
		for i := 0; i < n; i++ {
			if finish[i] == 0 {
				return false
			}
			// Allow 25% scheduling overhead/interference slack.
			if time.Duration(finish[i]) > work+work/4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
