package enoki

import (
	"time"

	"enoki/internal/cluster"
)

// Cluster is a simulated fleet: N machines — each a full sharded kernel
// stack — plus a control-plane job scheduler, all advancing under one
// deterministic clock (see internal/cluster). Construct one with
// NewCluster, submit jobs, run:
//
//	cl := enoki.NewCluster(
//	        enoki.WithMachines(100),
//	        enoki.WithPlacer("leastloaded"),
//	)
//	defer cl.Close()
//	for i := 0; i < 1000; i++ {
//	        cl.Submit(enoki.JobSpec{Cycles: 4})
//	}
//	cl.RunUntilIdle()
//	fmt.Println(cl.Stats().Done)
//
// Serial and parallel fleet drives are byte-identical, machine failures
// included — the cluster-scale version of the sharded determinism claim.
type Cluster = cluster.Cluster

// JobSpec describes one cluster job's work.
type JobSpec = cluster.JobSpec

// Job is the control plane's record of a submitted job.
type Job = cluster.Job

// JobState is a job's lifecycle stage.
type JobState = cluster.JobState

// Job lifecycle states.
const (
	JobPending  = cluster.JobPending
	JobStarting = cluster.JobStarting
	JobRunning  = cluster.JobRunning
	JobStopping = cluster.JobStopping
	JobDone     = cluster.JobDone
)

// ClusterStats is the fleet-wide roll-up Cluster.Stats returns.
type ClusterStats = cluster.Stats

// ClusterMachine is one machine agent of a Cluster.
type ClusterMachine = cluster.Machine

// MachineView is the control plane's model of one machine.
type MachineView = cluster.MachineView

// Placer is the cluster placement policy interface; PlacerByName maps the
// built-in names ("roundrobin", "leastloaded", "pack").
type Placer = cluster.Placer

// PlacerByName returns a fresh built-in placer, or nil for unknown names.
func PlacerByName(name string) Placer { return cluster.PlacerByName(name) }

// ErrClusterClosed is the sentinel wrapped by Cluster.Close on a closed
// cluster.
var ErrClusterClosed = cluster.ErrClosed

// ClusterOption configures NewCluster.
type ClusterOption func(*cluster.Config)

// WithMachines sets the fleet size (required, ≥ 1).
func WithMachines(n int) ClusterOption {
	return func(c *cluster.Config) { c.Machines = n }
}

// WithMachineTemplate sets the per-machine topology (default Machine8);
// every machine shards by NUMA node like a standalone WithShards System.
func WithMachineTemplate(m Machine) ClusterOption {
	return func(c *cluster.Config) { c.Machine = m }
}

// WithNetLatency sets the minimum cross-machine message latency — the fleet
// epoch length (default 50µs).
func WithNetLatency(d time.Duration) ClusterOption {
	return func(c *cluster.Config) { c.NetLatency = d }
}

// WithReconcileInterval sets the control plane's reconcile tick (default
// 200µs).
func WithReconcileInterval(d time.Duration) ClusterOption {
	return func(c *cluster.Config) { c.ReconcileEvery = d }
}

// WithDetectDelay sets the failure detector's bound: a machine that dies at
// T is declared dead at T+d (default 500µs).
func WithDetectDelay(d time.Duration) ClusterOption {
	return func(c *cluster.Config) { c.DetectDelay = d }
}

// WithClusterPlacer sets the placement policy instance (default
// LeastLoaded). For the built-ins by name, WithPlacer is shorter.
func WithClusterPlacer(p Placer) ClusterOption {
	return func(c *cluster.Config) { c.Placer = p }
}

// WithPlacer selects a built-in placement policy by name: "roundrobin",
// "leastloaded", or "pack". Unknown names panic.
func WithPlacer(name string) ClusterOption {
	p := cluster.PlacerByName(name)
	if p == nil {
		panic("enoki: unknown placer " + name)
	}
	return func(c *cluster.Config) { c.Placer = p }
}

// WithRebalanceSpread enables load rebalancing: when the assigned-job
// spread between the most and least loaded machines exceeds n, one job per
// reconcile tick migrates (checkpointed, cooperative). Zero disables.
func WithRebalanceSpread(n int) ClusterOption {
	return func(c *cluster.Config) { c.RebalanceSpread = n }
}

// WithJobPolicy sets the scheduler class id jobs spawn into (default 0,
// where the default setup registers CFS).
func WithJobPolicy(policy int) ClusterOption {
	return func(c *cluster.Config) { c.Policy = policy }
}

// WithFleetParallel forces the fleet drive: true runs each epoch's machines
// on min(GOMAXPROCS, machines) goroutines, false on the caller's. Without
// it the drive is parallel unless WithMachineSetup or WithMachineModules
// installs hooks, which may share state across machines. Both drives give
// byte-identical results.
func WithFleetParallel(on bool) ClusterOption {
	return func(c *cluster.Config) { c.Parallel = &on }
}

// WithMachineSetup replaces the default per-shard CFS registration: setup
// runs once per machine at construction and must register a scheduler
// class under the job policy on every shard. Recorders, tracers, and Enoki
// modules attach here.
func WithMachineSetup(setup func(machine int, sk *ShardedKernel)) ClusterOption {
	return func(c *cluster.Config) { c.Setup = setup }
}

// WithMachineModules is WithMachineSetup's upgradable variant: setup must
// register a scheduler class under the job policy on every shard through
// the enokic loader and return the per-shard adapters. Machines built this
// way are rollout targets — Cluster.Rollout ships them new module
// generations through enokic's transactional upgrade path.
func WithMachineModules(setup func(machine int, sk *ShardedKernel) []*Adapter) ClusterOption {
	return func(c *cluster.Config) { c.SetupModules = setup }
}

// NewCluster assembles a simulated fleet. With only WithMachines(n) it runs
// n 8-core machines with per-shard CFS, least-loaded placement, and the
// default network and control-loop latencies.
func NewCluster(opts ...ClusterOption) *Cluster {
	var cfg cluster.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return cluster.New(cfg)
}

// Rollout is one in-flight (or resolved) fleet rollout: the control plane
// upgrades a named scheduler-module generation across the cluster in canary
// waves, gating each widening on per-machine SLO verdicts and rolling every
// upgraded machine back if a wave fails. Start one with Cluster.Rollout
// between runs:
//
//	ro, err := cl.Rollout("v2", func(machine int, env enoki.Env) enoki.Scheduler {
//	        return enoki.NewWFQScheduler(env, policy)
//	}, enoki.WithCanaryFraction(0.05))
//	cl.Run(20 * time.Millisecond)
//	report := ro.Report() // replayable; identical serial vs parallel
type Rollout = cluster.Rollout

// RolloutConfig parameterizes Cluster.StartRollout; Cluster.Rollout builds
// one from a version, a factory, and RolloutOptions.
type RolloutConfig = cluster.RolloutConfig

// RolloutOption adjusts one rollout's canary sizing, soak window, or SLO
// verdict rules.
type RolloutOption = cluster.RolloutOption

// RolloutReport is the replayable record of one rollout: identical across
// serial and parallel drives of the same cluster history.
type RolloutReport = cluster.RolloutReport

// WaveReport records one rollout wave's membership and casualties.
type WaveReport = cluster.WaveReport

// MachineVerdict is the per-machine SLO verdict gating a rollout wave.
type MachineVerdict = cluster.MachineVerdict

// SlotState is one machine's stage in the rollout state machine; SlotStatus
// pairs it with the machine id (Rollout.Slots).
type SlotState = cluster.SlotState

// SlotStatus is one rollout target's current state.
type SlotStatus = cluster.SlotStatus

// Rollout slot states.
const (
	SlotPending     = cluster.SlotPending
	SlotUpgrading   = cluster.SlotUpgrading
	SlotObserving   = cluster.SlotObserving
	SlotHealthy     = cluster.SlotHealthy
	SlotFailed      = cluster.SlotFailed
	SlotRollingBack = cluster.SlotRollingBack
	SlotRolledBack  = cluster.SlotRolledBack
	SlotDead        = cluster.SlotDead
)

// Rollout errors.
var (
	// ErrRolloutActive: only one rollout may be in flight per cluster.
	ErrRolloutActive = cluster.ErrRolloutActive
	// ErrNoModules: no alive machine exposes upgradable modules — build the
	// cluster with WithMachineModules to make machines rollout targets.
	ErrNoModules = cluster.ErrNoModules
)

// WithCanaryFraction sets the first-wave fraction of target machines
// (default 0.02, always at least one machine).
func WithCanaryFraction(f float64) RolloutOption {
	return func(c *RolloutConfig) { c.Canary = f }
}

// WithWidenFactor sets the wave-width multiplier applied after each healthy
// wave (default 4).
func WithWidenFactor(n int) RolloutOption {
	return func(c *RolloutConfig) { c.Widen = n }
}

// WithObserveWindow sets the soak window between a wave's last upgrade ack
// and its health probes (default 2ms).
func WithObserveWindow(d time.Duration) RolloutOption {
	return func(c *RolloutConfig) { c.Observe = d }
}

// WithMaxFaults sets the per-machine budget of fault-killed modules found
// at probe time (default 0: any kill fails the verdict).
func WithMaxFaults(n int) RolloutOption {
	return func(c *RolloutConfig) { c.MaxFaults = n }
}

// WithMinCompletion sets the floor on done/assigned over the soak window
// for machines that had jobs assigned at soak start (default off).
func WithMinCompletion(f float64) RolloutOption {
	return func(c *RolloutConfig) { c.MinCompletion = f }
}

// WithMaxStartP99 sets the ceiling on a machine's start-op ack p99 during
// the soak (default 5ms).
func WithMaxStartP99(d time.Duration) RolloutOption {
	return func(c *RolloutConfig) { c.MaxStartP99 = d }
}
