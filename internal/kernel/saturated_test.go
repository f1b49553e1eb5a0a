package kernel

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"enoki/internal/sim"
)

// satShapes are the kernel configurations the saturated-tick pins cover: the
// one-socket Machine8, the two-socket Machine80 as one kernel, one kernel per
// node, and under flat CFS (placement blind to sockets, kicks still
// topology-aware), and the 1,000-CPU machine one kernel per 100-CPU node —
// where an LLC domain straddles a 64-bit mask word.
var satShapes = []struct {
	name    string
	m       func() Machine
	sharded bool
	flat    bool
}{
	{"m8", Machine8, false, false},
	{"m80", Machine80, false, false},
	{"m80-flat", Machine80, false, true},
	{"m80-sharded", Machine80, true, false},
	{"m1000-sharded", Machine1000, true, false},
}

// satPins are FNV-1a hashes of what one run of each shape and load leaves
// behind: per kernel its context switches, wakeups, IPIs sent and coalesced,
// cross-LLC and cross-node moves and events fired, then every task's
// SumExec. Captured at b9b38f4, before the NOHZ kick and CFS's idle-sibling
// search read a kernel-kept idle set instead of walking the machine; that is
// a host-side change, so every hash must stay put.
var satPins = map[string]uint64{
	"m8/saturated":              0xfd337bc51c728687,
	"m8/partly-idle":            0xa2c556821bf1d5c5,
	"m80/saturated":             0x761e2903fd251849,
	"m80/partly-idle":           0x483630abeeaaec86,
	"m80-flat/saturated":        0x761e2903fd251849,
	"m80-flat/partly-idle":      0xcdd24d81f8da9efa,
	"m80-sharded/saturated":     0xfb2139565b03b971,
	"m80-sharded/partly-idle":   0xee99bd8e8c62b761,
	"m1000-sharded/saturated":   0x1a05e300b52a5525,
	"m1000-sharded/partly-idle": 0xe0e663ff56eb210d,
}

// satRun builds one shape with CFS registered as testPolicyCFS, loads every
// kernel, runs d of virtual time and returns the kernels and tasks.
func satRun(t testing.TB, m Machine, sharded, flat bool, load func(*Kernel) []*Task, d time.Duration) ([]*Kernel, []*Task) {
	t.Helper()
	var ks []*Kernel
	var run func()
	if sharded {
		sk := NewShardedKernel(m, CostsFor(m), m.NumNodes, 0)
		for i := 0; i < sk.NumShards(); i++ {
			ks = append(ks, sk.ShardKernel(i))
		}
		run = func() { sk.RunFor(d) }
	} else {
		k := New(sim.New(), m, CostsFor(m))
		ks = append(ks, k)
		run = func() { k.RunFor(d) }
	}
	var tasks []*Task
	for _, k := range ks {
		cfs := NewCFS(k)
		if flat {
			cfs = NewCFSFlat(k)
		}
		k.RegisterClass(testPolicyCFS, cfs)
		tasks = append(tasks, load(k)...)
	}
	run()
	return ks, tasks
}

// spinner runs forever in 10 ms segments.
var spinner = BehaviorFunc(func(*Kernel, *Task) Action {
	return Action{Run: 10 * time.Millisecond, Op: OpContinue}
})

// sleeper runs for run, then sleeps for sleep, forever.
func sleeper(run, sleep time.Duration) Behavior {
	return BehaviorFunc(func(*Kernel, *Task) Action {
		return Action{Run: run, Op: OpSleep, SleepFor: sleep}
	})
}

// loadSaturated is the tick_saturated mix: two pinned spinners per CPU, so
// every tick sees a backlog, and a pinned sleeper on every eighth CPU for wake
// traffic. Once started no CPU is ever idle.
func loadSaturated(k *Kernel) []*Task {
	var tasks []*Task
	for cpu := 0; cpu < k.NumCPUs(); cpu++ {
		pin := WithAffinity(SingleCPU(cpu))
		for j := 0; j < 2; j++ {
			tasks = append(tasks, k.Spawn("spin", testPolicyCFS, spinner, pin, WithNice((cpu+3*j)%11-5)))
		}
		if cpu%8 == 0 {
			tasks = append(tasks, k.Spawn("sleep", testPolicyCFS,
				sleeper(100*time.Microsecond, 300*time.Microsecond+time.Duration(cpu)*time.Microsecond), pin))
		}
	}
	return tasks
}

// loadPartlyIdle leaves part of the machine idle in a layout that makes a busy
// tick find its kick target at every distance: on a multi-socket kernel
// socket 0 is saturated (its targets are remote); elsewhere LLC domains
// rotate between saturated (targets in another LLC of the socket), half idle
// with a backlog on the busy half (targets in the LLC) and one spinner per
// CPU with every fifth idle. Unpinned sleepers, one per four CPUs, wake into
// CFS's idle-sibling search.
func loadPartlyIdle(k *Kernel) []*Task {
	topo := k.Topo()
	var tasks []*Task
	for cpu := 0; cpu < k.NumCPUs(); cpu++ {
		spin := 0
		switch {
		case topo.NumNodes() > 1 && topo.NodeOf(cpu) == 0:
			spin = 2
		case (topo.DomainOf(cpu)+1)%3 == 0:
			spin = 2
		case (topo.DomainOf(cpu)+1)%3 == 1:
			spin = 2 * (1 - cpu%2)
		case cpu%5 != 0:
			spin = 1
		}
		for j := 0; j < spin; j++ {
			tasks = append(tasks, k.Spawn("spin", testPolicyCFS, spinner,
				WithAffinity(SingleCPU(cpu)), WithNice((cpu+3*j)%11-5)))
		}
	}
	for i := 0; i < (k.NumCPUs()+3)/4; i++ {
		run := 50*time.Microsecond + time.Duration(i%4)*25*time.Microsecond
		sleep := 150*time.Microsecond + time.Duration(i%7)*50*time.Microsecond
		tasks = append(tasks, k.Spawn("sleep", testPolicyCFS, sleeper(run, sleep)))
	}
	return tasks
}

// satHash is the pinned fingerprint of one run.
func satHash(ks []*Kernel, tasks []*Task) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, k := range ks {
		for _, v := range []uint64{k.CtxSwitches, k.Wakeups, k.IPIsSent, k.IPIsCoalesced,
			k.XLLCMoves, k.XNodeMoves, k.Engine().Fired()} {
			word(v)
		}
	}
	for _, t := range tasks {
		word(uint64(t.SumExec()))
	}
	return h.Sum64()
}

// TestSaturatedKernelPinned runs every shape saturated (the idle set empty at
// every tick) and partly idle (kicks to LLC, socket and remote targets, wakes
// placed on idle siblings) and checks each run against its pinned hash.
func TestSaturatedKernelPinned(t *testing.T) {
	loads := []struct {
		name string
		load func(*Kernel) []*Task
	}{{"saturated", loadSaturated}, {"partly-idle", loadPartlyIdle}}
	for _, s := range satShapes {
		for _, l := range loads {
			name := s.name + "/" + l.name
			t.Run(name, func(t *testing.T) {
				ks, tasks := satRun(t, s.m(), s.sharded, s.flat, l.load, 30*time.Millisecond)
				if got := satHash(ks, tasks); got != satPins[name] {
					t.Errorf("hash %#016x, pinned %#016x", got, satPins[name])
				}
			})
		}
	}
}

// TestSaturatedTickZeroAlloc is the allocation ratchet of the saturated tick:
// Machine80 one kernel per node with two pinned spinners per CPU, so every
// tick charges vruntime, may preempt, re-arms its timer and finds the idle
// set empty. Counted the way the benchmark ledger counts (MemStats.Mallocs
// over the run), a warm machine's simulated millisecond — 80 ticks — rounds
// to 0 allocations; the residue is the timer wheel meeting a new horizon.
func TestSaturatedTickZeroAlloc(t *testing.T) {
	m := Machine80()
	sk := NewShardedKernel(m, CostsFor(m), m.NumNodes, 0)
	for i := 0; i < sk.NumShards(); i++ {
		k := sk.ShardKernel(i)
		k.RegisterClass(testPolicyCFS, NewCFS(k))
		for cpu := 0; cpu < k.NumCPUs(); cpu++ {
			for j := 0; j < 2; j++ {
				k.Spawn("spin", testPolicyCFS, spinner, WithAffinity(SingleCPU(cpu)), WithNice(3*j-1))
			}
		}
	}
	sk.RunFor(100 * time.Millisecond)
	const ms = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < ms; i++ {
		sk.RunFor(time.Millisecond)
	}
	runtime.ReadMemStats(&after)
	for i := 0; i < sk.NumShards(); i++ {
		if k := sk.ShardKernel(i); k.nidle != 0 {
			t.Fatalf("shard %d: %d CPUs idle, want a saturated machine", i, k.nidle)
		}
	}
	per := float64(after.Mallocs-before.Mallocs) / ms
	t.Logf("%.3f allocs per simulated ms", per)
	if per >= 1 {
		t.Fatalf("saturated tick: %.3f allocs per simulated ms, want 0 (< 1)", per)
	}
}
