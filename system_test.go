package enoki_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"enoki"
)

// TestNewSystemDefaults: the zero-option System is a runnable 8-core box.
func TestNewSystemDefaults(t *testing.T) {
	sys := enoki.NewSystem()
	sys.RegisterCFS(0)
	if n := sys.Kernel().NumCPUs(); n != 8 {
		t.Fatalf("default machine has %d CPUs, want 8", n)
	}
	done := 0
	sys.Kernel().Spawn("w", 0, enoki.BehaviorFunc(func(*enoki.Kernel, *enoki.Task) enoki.Action {
		done++
		return enoki.Action{Op: enoki.OpExit}
	}))
	sys.Run(time.Millisecond)
	if done != 1 {
		t.Fatal("task did not run on the default system")
	}
}

// TestNewSystemNUMA: WithMachine installs the real topology, and modules
// see it through Env.
func TestNewSystemNUMA(t *testing.T) {
	sys := enoki.NewSystem(enoki.WithMachine(enoki.Machine80()))
	var topo *enoki.Topology
	ad, err := sys.Attach(1, enoki.GoModule(func(env enoki.Env) enoki.Scheduler {
		topo = env.Topology()
		return enoki.NewFIFOScheduler(env, 1)
	}))
	if err != nil || ad == nil {
		t.Fatalf("Attach failed: %v", err)
	}
	sys.RegisterCFS(0)
	if topo == nil || topo.NumNodes() != 2 || topo.NumCPUs() != 80 {
		t.Fatalf("module-visible topology wrong: %+v", topo)
	}
	if topo.Distance(0, 79) != enoki.DistCrossNode {
		t.Error("cpu0 and cpu79 should be on different sockets")
	}
}

// TestSystemLoadErrors: Attach surfaces the enokic sentinels unchanged.
func TestSystemLoadErrors(t *testing.T) {
	sys := enoki.NewSystem()
	if _, err := sys.Attach(1, enoki.GoModule(func(env enoki.Env) enoki.Scheduler {
		return enoki.NewFIFOScheduler(env, 1)
	})); err != nil {
		t.Fatalf("first load failed: %v", err)
	}
	_, err := sys.Attach(1, enoki.GoModule(func(env enoki.Env) enoki.Scheduler {
		return enoki.NewFIFOScheduler(env, 1)
	}))
	if !errors.Is(err, enoki.ErrDuplicatePolicy) {
		t.Fatalf("err = %v, want ErrDuplicatePolicy", err)
	}
	_, err = sys.Attach(2, enoki.GoModule(func(env enoki.Env) enoki.Scheduler {
		return enoki.NewFIFOScheduler(env, 3) // mismatched policy
	}))
	if !errors.Is(err, enoki.ErrPolicyMismatch) {
		t.Fatalf("err = %v, want ErrPolicyMismatch", err)
	}
}

// TestSystemRecorderDeferred: WithRecorder before any class exists must
// still produce a usable recorder once the drain class registers, with the
// module's earliest messages captured.
func TestSystemRecorderDeferred(t *testing.T) {
	var log bytes.Buffer
	sys := enoki.NewSystem(enoki.WithRecorder(&log, 0))
	if sys.Recorder() != nil {
		t.Fatal("recorder exists before its drain class is registered")
	}
	sys.MustAttach(1, enoki.GoModule(func(env enoki.Env) enoki.Scheduler {
		return enoki.NewFIFOScheduler(env, 1)
	}))
	sys.RegisterCFS(0)
	rec := sys.Recorder()
	if rec == nil {
		t.Fatal("recorder missing after drain class registration")
	}
	k := sys.Kernel()
	k.Spawn("w", 1, enoki.BehaviorFunc(func(*enoki.Kernel, *enoki.Task) enoki.Action {
		return enoki.Action{Op: enoki.OpExit}
	}))
	sys.Run(5 * time.Millisecond)
	rec.Close()
	if rec.Entries == 0 || log.Len() == 0 {
		t.Fatalf("recorder captured nothing: %d entries, %d bytes", rec.Entries, log.Len())
	}
}

// TestSystemSharded: WithShards partitions the two-socket machine, Attach and
// RegisterCFS apply per shard, and tasks run on both shards. On a one-node
// machine the partition is the one shard a System has without WithShards,
// so the single-kernel accessors and taps work there.
func TestSystemSharded(t *testing.T) {
	t.Run("two nodes", func(t *testing.T) {
		sys := enoki.NewSystem(enoki.WithMachine(enoki.Machine80()), enoki.WithShards(2))
		if sys.NumShards() != 2 {
			t.Fatalf("NumShards = %d, want 2", sys.NumShards())
		}
		if sys.Kernel() != nil || sys.Engine() != nil {
			t.Fatal("sharded System must not expose a single kernel/engine")
		}
		if _, err := sys.Attach(1, enoki.GoModule(func(env enoki.Env) enoki.Scheduler {
			return enoki.NewFIFOScheduler(env, 1)
		})); err != nil {
			t.Fatalf("sharded Attach failed: %v", err)
		}
		if got := len(sys.Adapters()); got != 2 {
			t.Fatalf("sharded Attach made %d adapters, want one per shard", got)
		}
		sys.RegisterCFS(0)
		done := make([]int, sys.NumShards())
		for i := 0; i < sys.NumShards(); i++ {
			i := i
			if n := sys.ShardKernel(i).NumCPUs(); n != 40 {
				t.Fatalf("shard %d has %d CPUs, want 40", i, n)
			}
			sys.ShardKernel(i).Spawn("w", 1, enoki.BehaviorFunc(func(*enoki.Kernel, *enoki.Task) enoki.Action {
				done[i]++
				return enoki.Action{Op: enoki.OpExit}
			}))
		}
		sys.Run(time.Millisecond)
		sys.Close()
		for i, n := range done {
			if n != 1 {
				t.Errorf("shard %d task ran %d times, want 1", i, n)
			}
		}
	})
	t.Run("one node", func(t *testing.T) {
		var log bytes.Buffer
		sys := enoki.NewSystem(enoki.WithMachine(enoki.Machine8()), enoki.WithShards(0),
			enoki.WithRecorder(&log, 0))
		if sys.NumShards() != 1 || sys.Kernel() == nil || sys.Kernel() != sys.ShardKernel(0) ||
			sys.Engine() != sys.Kernel().Engine() {
			t.Fatalf("one-node WithShards: %d shards, Kernel %p, ShardKernel(0) %p", sys.NumShards(), sys.Kernel(), sys.ShardKernel(0))
		}
		sys.MustAttach(1, enoki.GoModule(func(env enoki.Env) enoki.Scheduler {
			return enoki.NewFIFOScheduler(env, 1)
		}))
		sys.RegisterCFS(0)
		sys.Kernel().Spawn("w", 1, enoki.BehaviorFunc(func(*enoki.Kernel, *enoki.Task) enoki.Action {
			return enoki.Action{Op: enoki.OpExit}
		}))
		sys.Run(5 * time.Millisecond)
		rec := sys.Recorder()
		if rec == nil {
			t.Fatal("no recorder on a one-shard System")
		}
		rec.Close()
		if rec.Entries == 0 || log.Len() == 0 {
			t.Fatalf("recorder captured nothing: %d entries, %d bytes", rec.Entries, log.Len())
		}
	})
}

// TestSystemClockFollowsKernel: a one-shard System's clock is its kernel's,
// so driving the kernel directly and driving the System mix: the System
// reads where the kernel left off and runs on from there.
func TestSystemClockFollowsKernel(t *testing.T) {
	for _, busy := range []bool{false, true} {
		sys := enoki.NewSystem()
		sys.RegisterCFS(0)
		k := sys.Kernel()
		if busy { // a sleeper keeps timers pending past the first 10 ms
			k.Spawn("sleeper", 0, enoki.BehaviorFunc(func(*enoki.Kernel, *enoki.Task) enoki.Action {
				return enoki.Action{Run: 50 * time.Microsecond, Op: enoki.OpSleep, SleepFor: 3 * time.Millisecond}
			}))
		}
		k.RunFor(10 * time.Millisecond)
		if got, want := sys.Now(), enoki.Time(0).Add(10*time.Millisecond); got != want {
			t.Fatalf("after Kernel().RunFor(10ms) System.Now() = %v, want %v", got, want)
		}
		sys.Run(5 * time.Millisecond)
		if got, want := sys.Now(), enoki.Time(0).Add(15*time.Millisecond); got != want || k.Now() != want {
			t.Fatalf("after System.Run(5ms): System.Now() %v, kernel %v, want %v", got, k.Now(), want)
		}
	}
}

// systemBuildAllocs is what a one-shard System with CFS costs to build:
// the kernel's slabs (TestMachineBuildAllocs), the System and its options,
// the executor with its shard slab and outbox, and the CFS attachment.
const systemBuildAllocs = 37

// TestSystemBuildAllocs is the front door's construction ratchet: a
// one-shard System is a ShardedKernel, and that must cost a fixed handful of
// allocations over the bare kernel, the same on Machine8 and the flat
// Machine80.
func TestSystemBuildAllocs(t *testing.T) {
	for _, m := range []enoki.Machine{enoki.Machine8(), enoki.Machine80()} {
		n := testing.AllocsPerRun(20, func() {
			enoki.NewSystem(enoki.WithMachine(m)).RegisterCFS(0)
		})
		if n > systemBuildAllocs {
			t.Errorf("%s: NewSystem+RegisterCFS costs %.0f allocations, want at most %d", m.Name, n, systemBuildAllocs)
		}
	}
}

// TestSystemShardedRejects: the sharded constructor rejects shard counts
// that disagree with the topology and single-kernel taps.
func TestSystemShardedRejects(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("WithShards mismatch", func() {
		enoki.NewSystem(enoki.WithMachine(enoki.Machine80()), enoki.WithShards(3))
	})
	mustPanic("WithRecorder sharded", func() {
		enoki.NewSystem(enoki.WithMachine(enoki.Machine80()), enoki.WithShards(0),
			enoki.WithRecorder(&bytes.Buffer{}, 0))
	})
	mustPanic("BuiltinClass sharded", func() {
		sys := enoki.NewSystem(enoki.WithMachine(enoki.Machine80()), enoki.WithShards(0))
		sys.MustAttach(0, enoki.BuiltinClass(enoki.NewCFS(sys.ShardKernel(0))))
	})
}

// TestSystemCloseIdempotence: Close is safe on both system flavors — the
// first call succeeds, the second reports ErrSystemClosed, and a closed
// System rejects Attach with a typed error instead of corrupting state.
func TestSystemCloseIdempotence(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() *enoki.System
	}{
		{"unsharded", func() *enoki.System { return enoki.NewSystem() }},
		{"sharded", func() *enoki.System {
			return enoki.NewSystem(enoki.WithMachine(enoki.Machine80()), enoki.WithShards(0))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.mk()
			sys.RegisterCFS(0)
			sys.Run(time.Millisecond)
			if err := sys.Close(); err != nil {
				t.Fatalf("first Close: %v", err)
			}
			if err := sys.Close(); !errors.Is(err, enoki.ErrSystemClosed) {
				t.Fatalf("second Close = %v, want ErrSystemClosed", err)
			}
			_, err := sys.Attach(1, enoki.GoModule(func(env enoki.Env) enoki.Scheduler { return nil }))
			if !errors.Is(err, enoki.ErrSystemClosed) {
				t.Fatalf("Attach after Close = %v, want ErrSystemClosed", err)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Run on closed System did not panic")
					}
				}()
				sys.Run(time.Millisecond)
			}()
			func() {
				defer func() {
					if recover() == nil {
						t.Error("RegisterCFS on closed System did not panic")
					}
				}()
				sys.RegisterCFS(2)
			}()
		})
	}
}
