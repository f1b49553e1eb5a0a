package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"enoki/internal/kernel"
	"enoki/internal/ktime"
)

// TestClusterLifecycle walks the happy path: jobs are placed, run, and
// complete, and the control-plane accounting agrees with the machines.
func TestClusterLifecycle(t *testing.T) {
	c := New(Config{Machines: 2})
	defer c.Close()
	for i := 0; i < 5; i++ {
		c.Submit(JobSpec{Cycles: 3, Run: 150 * time.Microsecond, Sleep: 200 * time.Microsecond})
	}
	c.RunUntilIdle()
	st := c.Stats()
	if st.Done != 5 || st.Submitted != 5 {
		t.Fatalf("done/submitted = %d/%d, want 5/5", st.Done, st.Submitted)
	}
	if st.TasksSpawned != 5 {
		t.Fatalf("machines spawned %d tasks, want 5", st.TasksSpawned)
	}
	if st.PlaceP99 <= 0 || st.E2EP99 < st.PlaceP50 {
		t.Fatalf("latency accounting broken: place p99 %v, e2e p99 %v", st.PlaceP99, st.E2EP99)
	}
	for i := 0; i < c.NumJobs(); i++ {
		j := c.Job(i)
		if j.State != JobDone || j.CyclesLeft != 0 {
			t.Fatalf("job %d finished as %v with %d cycles left", i, j.State, j.CyclesLeft)
		}
		if j.DoneAt <= j.StartedAt || j.StartedAt <= j.SubmittedAt {
			t.Fatalf("job %d timeline out of order: %v / %v / %v", i, j.SubmittedAt, j.StartedAt, j.DoneAt)
		}
	}
	if st.MsgsDelivered == 0 || st.MsgsDropped != 0 {
		t.Fatalf("fleet delivered %d dropped %d, want >0 and 0", st.MsgsDelivered, st.MsgsDropped)
	}
}

// TestClusterRoundRobinSpreads pins the round-robin placer: six jobs on
// three machines land two per machine.
func TestClusterRoundRobinSpreads(t *testing.T) {
	c := New(Config{Machines: 3, Placer: &RoundRobin{}})
	defer c.Close()
	for i := 0; i < 6; i++ {
		c.Submit(JobSpec{Cycles: 2})
	}
	c.RunUntilIdle()
	perMachine := map[int]int{}
	for i := 0; i < c.NumJobs(); i++ {
		j := c.Job(i)
		if j.State != JobDone {
			t.Fatalf("job %d not done: %v", i, j.State)
		}
		perMachine[j.Machine]++
	}
	for m := 0; m < 3; m++ {
		if perMachine[m] != 2 {
			t.Fatalf("machine loads %v, want 2 each", perMachine)
		}
	}
}

// TestClusterRebalanceMigrates packs everything onto machine 0, then lets
// the rebalancer migrate jobs toward machine 1 mid-run: migrations must
// checkpoint progress and every job must still finish.
func TestClusterRebalanceMigrates(t *testing.T) {
	c := New(Config{
		Machines:        2,
		Placer:          &Pack{PerCPU: 8},
		RebalanceSpread: 1,
	})
	defer c.Close()
	for i := 0; i < 12; i++ {
		c.Submit(JobSpec{Cycles: 40, Run: 100 * time.Microsecond})
	}
	c.RunUntilIdle()
	st := c.Stats()
	if st.Done != 12 {
		t.Fatalf("done = %d, want 12", st.Done)
	}
	if st.Migrations == 0 || st.StopsSent == 0 {
		t.Fatalf("rebalancer idle: %d migrations, %d stops", st.Migrations, st.StopsSent)
	}
	moved := 0
	for i := 0; i < c.NumJobs(); i++ {
		if j := c.Job(i); j.Migrations > 0 {
			moved++
			if j.CyclesLeft != 0 {
				t.Fatalf("migrated job %d lost its checkpoint: %d cycles left", i, j.CyclesLeft)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no job records a migration")
	}
}

// TestClusterFailover kills a machine mid-run: its jobs restart from their
// last checkpoint on the survivor and everything still completes.
func TestClusterFailover(t *testing.T) {
	c := New(Config{Machines: 2, Placer: &RoundRobin{}})
	defer c.Close()
	for i := 0; i < 8; i++ {
		c.Submit(JobSpec{Cycles: 20, Run: 150 * time.Microsecond, Sleep: 100 * time.Microsecond})
	}
	c.FailMachine(0, 2*time.Millisecond)
	c.RunUntilIdle()
	st := c.Stats()
	if st.Done != 8 {
		t.Fatalf("done = %d, want 8 (stats %+v)", st.Done, st)
	}
	if st.Lost == 0 {
		t.Fatal("no job was lost to the failure")
	}
	if st.MachinesAlive != 1 {
		t.Fatalf("machines alive = %d, want 1", st.MachinesAlive)
	}
	restarted := 0
	for i := 0; i < c.NumJobs(); i++ {
		j := c.Job(i)
		if j.State != JobDone {
			t.Fatalf("job %d not done: %v", i, j.State)
		}
		if j.Restarts > 0 {
			restarted++
			if j.Machine != 1 {
				t.Fatalf("restarted job %d finished on dead machine %d", i, j.Machine)
			}
		}
	}
	if restarted != st.Lost {
		t.Fatalf("restarted jobs %d != lost placements %d", restarted, st.Lost)
	}
	// The frozen machine's clock must trail the fleet floor.
	if now := c.Machine(0).Sharded().Now(); now >= c.Now() {
		t.Fatalf("dead machine clock %v reached fleet floor %v", now, c.Now())
	}
}

// TestClusterAllDeadTerminates pins the liveness of the control loop: with
// every machine dead and jobs stranded Pending, the reconciler goes
// quiescent instead of ticking forever, so RunUntilIdle returns.
func TestClusterAllDeadTerminates(t *testing.T) {
	c := New(Config{Machines: 1})
	defer c.Close()
	c.Submit(JobSpec{Cycles: 1 << 20, Run: time.Millisecond})
	c.FailMachine(0, time.Millisecond)
	c.RunUntilIdle()
	st := c.Stats()
	if st.Done != 0 || st.MachinesAlive != 0 {
		t.Fatalf("done/alive = %d/%d, want 0/0", st.Done, st.MachinesAlive)
	}
	if j := c.Job(0); j.State != JobPending || j.Restarts != 1 {
		t.Fatalf("stranded job state %v restarts %d, want pending/1", j.State, j.Restarts)
	}
}

// TestClusterCloseIdempotence mirrors the system-level Close hardening:
// first Close succeeds, the second reports ErrClosed, and post-Close use
// panics.
func TestClusterCloseIdempotence(t *testing.T) {
	c := New(Config{Machines: 1})
	c.Submit(JobSpec{})
	c.Run(5 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	err := c.Close()
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Submit on closed cluster did not panic")
		}
	}()
	c.Submit(JobSpec{})
}

// TestFleetDroppedUnclosedLeaksNothing: a default cluster, which drives in
// parallel, dropped without Close leaves no goroutine behind to keep the
// fleet reachable — the parallel drive forks and joins inside every epoch.
func TestFleetDroppedUnclosedLeaksNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	base := runtime.NumGoroutine()
	func() {
		c := New(Config{Machines: 8})
		for i := 0; i < 40; i++ {
			c.Submit(JobSpec{Cycles: 2})
		}
		c.RunUntilIdle()
		if done := c.Stats().Done; done != 40 {
			t.Fatalf("%d of 40 jobs done", done)
		}
	}()
	// A joined worker may still be on its way out: give it a moment.
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines after dropping the cluster, %d before building it", runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// smokeFleet runs the smoke-size fleet_jobs shape — 12 Machine8s, 40 jobs
// each of 2-4 cycles of 100-300 µs, half sleeping 200 µs, machine 4 killed
// at 2 ms — to idle, and returns its stats and every machine's counters and
// clock, then every job.
func smokeFleet(cfg Config) (Stats, []uint64, []Job) {
	c := New(cfg)
	defer c.Close()
	rng := ktime.NewRand(1)
	for i := 0; i < 12*40; i++ {
		c.Submit(JobSpec{Cycles: 2 + rng.Intn(3), Run: time.Duration(100+rng.Intn(200)) * time.Microsecond,
			Sleep: time.Duration(rng.Intn(2)) * 200 * time.Microsecond})
	}
	c.FailMachine(4, 2*time.Millisecond)
	c.RunUntilIdle()
	var fp []uint64
	for _, m := range c.machines {
		sk := m.Sharded()
		fp = append(fp, m.TasksSpawned(), sk.CtxSwitches(), sk.EventsFired(), sk.Wakeups(), uint64(sk.Now()))
	}
	jobs := make([]Job, c.NumJobs())
	for i := range jobs {
		jobs[i] = c.Job(i)
	}
	return c.Stats(), fp, jobs
}

// TestFleetDefaultDriveMatchesSerial: a cluster built with no drive option
// drives in parallel, and its run is the forced-serial run's — every
// machine's counters and clock, every job, the stats. Under -race it is
// also the default drive's data-race gate.
func TestFleetDefaultDriveMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	cfg := Config{Machines: 12, Machine: kernel.Machine8()}
	if par := *New(cfg).cfg.Parallel; !par {
		t.Fatal("a cluster with no drive option and no setup hook drives serially")
	}
	off := false
	serial, fpSerial, jobsSerial := smokeFleet(Config{Machines: 12, Machine: kernel.Machine8(), Parallel: &off})
	st, fp, jobs := smokeFleet(cfg)
	if st != serial || !slices.Equal(fp, fpSerial) || !slices.Equal(jobs, jobsSerial) {
		t.Fatalf("default drive differs from the serial one:\ndefault %+v\nserial  %+v", st, serial)
	}
	if st.Done != 12*40 || st.Lost == 0 {
		t.Fatalf("done %d of %d, lost %d: the kill missed the run", st.Done, 12*40, st.Lost)
	}
}

// countingCFS is CFS counting its new tasks into a counter every machine
// shares, unsynchronized: only a serial drive may run it.
type countingCFS struct {
	*kernel.CFS
	n *int
}

func (c countingCFS) TaskNew(t *kernel.Task) {
	*c.n++
	c.CFS.TaskNew(t)
}

// TestFleetSetupHookDrivesSerially: a setup hook may share state across
// machines, so a cluster built with one and no drive option drives
// serially — under -race, a parallel drive here is a reported race.
func TestFleetSetupHookDrivesSerially(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	var n int
	c := New(Config{Machines: 6, Setup: func(_ int, sk *kernel.ShardedKernel) {
		for i := 0; i < sk.NumShards(); i++ {
			k := sk.ShardKernel(i)
			k.RegisterClass(0, countingCFS{kernel.NewCFS(k), &n})
		}
	}})
	defer c.Close()
	if *c.cfg.Parallel {
		t.Fatal("a cluster with a setup hook and no drive option drives in parallel")
	}
	for i := 0; i < 60; i++ {
		c.Submit(JobSpec{Cycles: 2, Run: 100 * time.Microsecond, Sleep: 100 * time.Microsecond})
	}
	c.RunUntilIdle()
	if st := c.Stats(); st.Done != 60 || uint64(n) != st.TasksSpawned {
		t.Fatalf("done %d of 60; the shared counter read %d for %d tasks", st.Done, n, st.TasksSpawned)
	}
}

// TestClusterNUMAMachines runs two-node machines inside the fleet: jobs
// spread across shards by id, exercising the nested (fleet-over-IPI)
// executor stack.
func TestClusterNUMAMachines(t *testing.T) {
	m := kernel.MachineNUMA("fleet16", 2, 2, 4)
	c := New(Config{Machines: 3, Machine: m})
	defer c.Close()
	for i := 0; i < 12; i++ {
		c.Submit(JobSpec{Cycles: 4, Run: 120 * time.Microsecond, Sleep: 80 * time.Microsecond})
	}
	c.RunUntilIdle()
	if st := c.Stats(); st.Done != 12 {
		t.Fatalf("done = %d, want 12", st.Done)
	}
	shards := map[int]bool{}
	for i := 0; i < c.NumJobs(); i++ {
		shards[c.Job(i).Shard] = true
	}
	if !shards[0] || !shards[1] {
		t.Fatalf("jobs used shards %v, want both NUMA nodes", shards)
	}
}

// TestPlacerByName covers the CLI mapping.
func TestPlacerByName(t *testing.T) {
	for _, name := range []string{"roundrobin", "leastloaded", "pack"} {
		p := PlacerByName(name)
		if p == nil || p.Name() != name {
			t.Fatalf("PlacerByName(%q) = %v", name, p)
		}
	}
	if PlacerByName("nope") != nil {
		t.Fatal("unknown placer name must map to nil")
	}
}

// migrationTrace drives c to idle one network latency at a time and records
// every rebalance decision as "job:from>to@tick" — a stop stays in flight for
// at least a round trip, so polling at the one-way latency sees each one
// while the job is still Stopping with its source and target in the record.
func migrationTrace(c *Cluster) string {
	var sb strings.Builder
	seen := map[int]int{} // job id → migrations already traced
	step := c.cfg.NetLatency
	for at := time.Duration(0); c.sched.live > 0 && c.sched.anyAlive(); at += step {
		c.Run(step)
		for id := 0; id < c.NumJobs(); id++ {
			j := c.Job(id)
			if j.State == JobStopping && seen[id] == j.Migrations {
				seen[id]++
				fmt.Fprintf(&sb, "%d:%d>%d@%d ", id, j.Machine, j.Desired, (at+step)/c.cfg.ReconcileEvery)
			}
		}
	}
	return strings.TrimSpace(sb.String())
}

// TestRebalanceMigrationSequencePinned pins which job the rebalancer picks,
// from where, to where and on which reconcile tick — "lowest-id Running job
// on the most loaded machine" — for TestClusterRebalanceMigrates's cluster
// and for the bench package's pinned pack-rebalance fleet drive (kill
// included). Captured at 101d1ac.
func TestRebalanceMigrationSequencePinned(t *testing.T) {
	a := New(Config{Machines: 2, Placer: &Pack{PerCPU: 8}, RebalanceSpread: 1})
	defer a.Close()
	for i := 0; i < 12; i++ {
		a.Submit(JobSpec{Cycles: 40, Run: 100 * time.Microsecond})
	}
	if got, want := migrationTrace(a),
		"0:0>1@2 1:0>1@3 2:0>1@4 3:0>1@5 4:0>1@6 5:0>1@7 0:1>0@22 9:0>1@23 10:0>1@24"; got != want {
		t.Errorf("two-machine pack: migrations\n got  %s\n want %s", got, want)
	}

	b := New(Config{Machines: 6, Machine: kernel.Machine8(), Placer: &Pack{PerCPU: 2}, RebalanceSpread: 3})
	defer b.Close()
	rng := ktime.NewRand(0xf1ee7b47)
	for i := 0; i < 120; i++ {
		b.Submit(JobSpec{
			Cycles: 2 + rng.Intn(3),
			Run:    time.Duration(100+rng.Intn(200)) * time.Microsecond,
			Sleep:  time.Duration(rng.Intn(2)) * 200 * time.Microsecond,
		})
	}
	b.FailMachine(2, time.Millisecond)
	if got, want := migrationTrace(b),
		"48:3>1@5 33:2>4@6 34:2>5@7 16:1>4@8 2:0>4@9 44:3>5@10 24:1>5@11 26:1>5@12 45:3>4@13 35:0>4@14"; got != want {
		t.Errorf("pinned pack-rebalance drive: migrations\n got  %s\n want %s", got, want)
	}
	if st := b.Stats(); st.Migrations != 10 || st.Done != 120 {
		t.Errorf("pack-rebalance drive: %d migrations, %d done; the bench pin has 10 and 120", st.Migrations, st.Done)
	}
}

// TestClusterJobAllocs is the job-path allocation ratchet, counted the way
// the benchmark ledger counts (runtime.MemStats.Mallocs over the run region,
// set-up and Submit excluded): a job's whole life — place, start message,
// spawn, two to four segments, exit, done report — with a machine failure
// and its restarts included, stays under five allocations. One is the
// kernel task; the rest of the budget is what slabs, chunks and queues
// spend growing to the run's high-water mark, amortized. It was 22 when
// every message, job record, timer and tree node was an allocation of its
// own.
func TestClusterJobAllocs(t *testing.T) {
	const machines, jobs = 20, 4000
	c := New(Config{Machines: machines, Machine: kernel.Machine8()})
	defer c.Close()
	rng := ktime.NewRand(0xa110c5)
	for i := 0; i < jobs; i++ {
		c.Submit(JobSpec{
			Cycles: 2 + rng.Intn(3),
			Run:    time.Duration(100+rng.Intn(200)) * time.Microsecond,
			Sleep:  time.Duration(rng.Intn(2)) * 200 * time.Microsecond,
		})
	}
	c.FailMachine(machines/3, 5*time.Millisecond)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c.RunUntilIdle()
	runtime.ReadMemStats(&after)
	st := c.Stats()
	if st.Done != jobs || st.Lost == 0 {
		t.Fatalf("run region incomplete: %d of %d done, %d lost", st.Done, jobs, st.Lost)
	}
	per := float64(after.Mallocs-before.Mallocs) / jobs
	t.Logf("%.2f allocs/job (%d tasks spawned)", per, st.TasksSpawned)
	if per > 5.0 {
		t.Fatalf("job path costs %.2f allocs/job, want <= 5.0", per)
	}
}
