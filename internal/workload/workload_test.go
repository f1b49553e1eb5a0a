package workload

import (
	"testing"
	"time"

	"enoki/internal/arachne"
	"enoki/internal/kernel"
	"enoki/internal/sim"
)

func cfsKernel(m kernel.Machine) *kernel.Kernel {
	eng := sim.New()
	k := kernel.New(eng, m, kernel.CostsFor(m))
	k.RegisterClass(0, kernel.NewCFS(k))
	return k
}

func TestPipeCompletesAndMeasures(t *testing.T) {
	k := cfsKernel(kernel.Machine8())
	r := RunPipe(k, PipeConfig{Policy: 0, Messages: 2000, SameCore: true})
	if r.Messages != 4000 {
		t.Fatalf("messages = %d", r.Messages)
	}
	if r.PerWakeup < time.Microsecond || r.PerWakeup > 20*time.Microsecond {
		t.Fatalf("per-wakeup = %v", r.PerWakeup)
	}
	// Two-core configuration also completes.
	k2 := cfsKernel(kernel.Machine8())
	r2 := RunPipe(k2, PipeConfig{Policy: 0, Messages: 2000})
	if r2.Messages != 4000 {
		t.Fatalf("two-core messages = %d", r2.Messages)
	}
}

func TestSchbenchProducesSamples(t *testing.T) {
	k := cfsKernel(kernel.Machine8())
	r := RunSchbench(k, SchbenchConfig{
		Policy: 0, MessageThreads: 2, WorkersPerMsg: 2,
		Warmup: 20 * time.Millisecond, Duration: 100 * time.Millisecond,
	})
	if r.Samples < 100 {
		t.Fatalf("samples = %d", r.Samples)
	}
	if r.P99 < r.P50 {
		t.Fatalf("p99 %v < p50 %v", r.P99, r.P50)
	}
}

func TestSchbenchPacedMode(t *testing.T) {
	k := cfsKernel(kernel.Machine8())
	r := RunSchbench(k, SchbenchConfig{
		Policy: 0, MessageThreads: 1, WorkersPerMsg: 2,
		Warmup: 10 * time.Millisecond, Duration: 50 * time.Millisecond,
		WorkerBurst: 2 * time.Microsecond, MsgWork: 2 * time.Microsecond,
		RoundPause: 100 * time.Microsecond,
	})
	if r.Samples < 100 {
		t.Fatalf("paced samples = %d", r.Samples)
	}
}

func TestRocksDBServesOfferedLoad(t *testing.T) {
	k := cfsKernel(kernel.Machine8())
	db := NewRocksDB(k, RocksDBConfig{
		Policy: 0, Rate: 20000,
		Warmup: 50 * time.Millisecond, Duration: 200 * time.Millisecond,
	})
	r := db.Start()
	// Achieved should be within 15% of offered at this low load.
	if r.Achieved < 17000 || r.Achieved > 23000 {
		t.Fatalf("achieved = %.0f of 20000 offered", r.Achieved)
	}
	if r.P99 <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestBatchAppAccounting(t *testing.T) {
	k := cfsKernel(kernel.Machine8())
	b := NewBatchApp(k, 0, 2, 19, []int{0, 1})
	k.RunFor(100 * time.Millisecond)
	cpu := b.CPUTime()
	// Two tasks on two otherwise idle cores for 100ms.
	if cpu < 190*time.Millisecond || cpu > 205*time.Millisecond {
		t.Fatalf("batch cpu = %v", cpu)
	}
	if s := b.Share(100*time.Millisecond, 0); s < 1.9 || s > 2.1 {
		t.Fatalf("share = %.2f", s)
	}
}

func TestMemcachedThreadsLowLoad(t *testing.T) {
	k := cfsKernel(kernel.Machine8())
	r := RunMemcachedThreads(k, 0, 8, MemcachedConfig{
		Rate: 50000, Warmup: 50 * time.Millisecond, Duration: 200 * time.Millisecond,
	})
	if r.Achieved < 42000 || r.Achieved > 58000 {
		t.Fatalf("achieved = %.0f of 50000", r.Achieved)
	}
}

func TestMemcachedArachne(t *testing.T) {
	k := cfsKernel(kernel.Machine8())
	rt := arachne.NewRuntime(k, arachne.DefaultConfig())
	acts := rt.Start(0, 7)
	na := arachne.NewNativeArbiter(k, []int{1, 2, 3, 4, 5, 6, 7})
	na.Attach(rt, 1, acts)
	rt.StartEstimator()
	r := RunMemcachedArachne(k, rt, MemcachedConfig{
		Rate: 50000, Warmup: 50 * time.Millisecond, Duration: 200 * time.Millisecond,
	})
	if r.Achieved < 42000 || r.Achieved > 58000 {
		t.Fatalf("achieved = %.0f of 50000", r.Achieved)
	}
}

func TestAppProfilesAllComplete(t *testing.T) {
	profiles := Table5Profiles()
	if len(profiles) != 36 {
		t.Fatalf("profiles = %d, want 36", len(profiles))
	}
	names := map[string]bool{}
	kinds := map[AppKind]int{}
	for _, p := range profiles {
		if names[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		names[p.Name] = true
		kinds[p.Kind]++
		if p.PaperCFS <= 0 {
			t.Fatalf("%q missing anchor", p.Name)
		}
	}
	if kinds[AppBarrier] == 0 || kinds[AppForkJoin] == 0 || kinds[AppPipeline] == 0 {
		t.Fatalf("kind coverage: %v", kinds)
	}
	// Run one profile of each kind end to end.
	for _, idx := range []int{0, 9, 11} {
		p := profiles[idx]
		k := cfsKernel(kernel.Machine8())
		d := RunApp(k, 0, p, 42)
		if d <= 0 || d >= time.Hour {
			t.Fatalf("%q did not complete: %v", p.Name, d)
		}
	}
}

func TestAppDeterminism(t *testing.T) {
	p := Table5Profiles()[11] // Cassandra pipeline
	run := func() time.Duration {
		k := cfsKernel(kernel.Machine8())
		return RunApp(k, 0, p, 7)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic app run: %v vs %v", a, b)
	}
}

func TestProbes(t *testing.T) {
	k := cfsKernel(kernel.Machine8())
	times := FairnessProbe(k, 0, true, 50*time.Millisecond)
	if len(times) != 5 {
		t.Fatalf("fairness times = %d", len(times))
	}
	for _, d := range times {
		// 5 tasks × 50ms on one core ≈ 250ms each under fair sharing.
		if d < 200*time.Millisecond || d > 300*time.Millisecond {
			t.Fatalf("co-located completion = %v", d)
		}
	}
	k2 := cfsKernel(kernel.Machine8())
	wt := WeightProbe(k2, 0, 50*time.Millisecond)
	if wt[4] <= wt[0] {
		t.Fatalf("nice-19 task finished before normal tasks: %v", wt)
	}
	k3 := cfsKernel(kernel.Machine8())
	pt := PlacementProbe(k3, 0, 50*time.Millisecond, false)
	if len(pt) != 8 {
		t.Fatalf("placement times = %d", len(pt))
	}
}

func TestArachnePipe(t *testing.T) {
	k := cfsKernel(kernel.Machine8())
	rt := arachne.NewRuntime(k, arachne.DefaultConfig())
	rt.Start(0, 2)
	rt.SetGranted(2)
	r := RunArachnePipe(k, rt, 2000, false)
	if r.Messages != 4000 {
		t.Fatalf("messages = %d", r.Messages)
	}
	if r.PerWakeup > time.Microsecond {
		t.Fatalf("user-level per-wakeup = %v", r.PerWakeup)
	}
}

// TestSchbenchRoundZeroAlloc is schbench's allocation ratchet: once warm, a
// round — the message thread waking its workers, their think time, the last
// responder waking it back, and every block with its recheck — allocates
// nothing.
func TestSchbenchRoundZeroAlloc(t *testing.T) {
	k := cfsKernel(kernel.Machine8())
	RunSchbench(k, SchbenchConfig{
		Policy: 0, MessageThreads: 1, WorkersPerMsg: 4,
		Warmup: 5 * time.Millisecond, Duration: 5 * time.Millisecond,
	})
	switches := func() (n uint64) {
		for cpu := 0; cpu < k.NumCPUs(); cpu++ {
			n += k.CPUSwitches(cpu)
		}
		return n
	}
	before := switches()
	// A round is 20 µs of message work and ~100 µs of worker think time.
	if avg := testing.AllocsPerRun(50, func() { k.RunFor(200 * time.Microsecond) }); avg != 0 {
		t.Errorf("%.2f allocs per schbench round, want 0", avg)
	}
	if switches() == before {
		t.Fatal("no round ran in the measured window")
	}
}
