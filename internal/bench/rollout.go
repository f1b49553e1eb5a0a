// Fleet-rollout benchmark: the canary-upgrade artifact. The same
// thousand-machine fleet the fleet benchmark drives is upgraded to a new
// module generation through the cluster rollout orchestrator, twice over:
// a clean campaign that must converge wave by wave onto the whole fleet,
// and a sabotaged campaign — the new generation panics in init above a
// machine threshold — that must halt at the canary wave which hits the
// faulty region and roll every already-upgraded machine back. Each variant
// runs serially and on worker goroutines and must fingerprint identically,
// so the artifact's verdicts cover the rollout contract end to end:
// convergence, halt correctness, rollback completeness, and determinism.
// A fifth verdict replays the pinned chaos schedule, proving a seeded
// faulty campaign reproduces bit-for-bit from its one-line `r1:` spec.
package bench

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"time"

	"enoki/internal/chaos"
	"enoki/internal/cluster"
	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/schedtest"
	"enoki/internal/schedtest/conformance"
)

const (
	// rolloutClass is the conformance scheduler class every machine loads as
	// its upgradable module; the rollout ships a fresh generation of it.
	rolloutClass = "wfq"
	// rolloutVersion names the generation being rolled out.
	rolloutVersion = "v2"
	// rolloutBudget is the fixed virtual budget of one drive: an order of
	// magnitude past the wave span, so an unresolved rollout is a verdict
	// failure, not a hang.
	rolloutBudget = 40 * time.Millisecond
	// rolloutReplaySpec is the pinned chaos schedule (two machine kills plus
	// a faulty generation, drawn from seed 9) whose replay the artifact
	// re-verifies on every run. The string is the entire reproducer.
	rolloutReplaySpec = "r1:wfq:9:7"
)

// RolloutBenchResult is the rollout section of BENCH_cluster.json.
type RolloutBenchResult struct {
	Machines    int    `json:"machines"`
	MachineCPUs int    `json:"machine_cpus"`
	Shards      int    `json:"shards_per_machine"`
	Jobs        int    `json:"jobs"`
	Class       string `json:"class"`
	Version     string `json:"version"`
	Previous    string `json:"previous"`
	FaultyFrom  int    `json:"faulty_from"` // faulty generation on machines >= this id

	Targets    int `json:"targets"`
	Canary     int `json:"canary"`
	CleanWaves int `json:"clean_waves"`

	WallCleanSerialMS    float64 `json:"wall_clean_serial_ms"`
	WallCleanParallelMS  float64 `json:"wall_clean_parallel_ms"`
	WallFaultySerialMS   float64 `json:"wall_faulty_serial_ms"`
	WallFaultyParallelMS float64 `json:"wall_faulty_parallel_ms"`

	FaultyHaltedWave   int `json:"faulty_halted_wave"`
	FaultyRolledBack   int `json:"faulty_rolled_back"`
	FaultyRollbackErrs int `json:"faulty_rollback_errs"`
	FaultyDead         int `json:"faulty_dead"`

	FingerprintCleanSerial    string `json:"fingerprint_clean_serial"`
	FingerprintCleanParallel  string `json:"fingerprint_clean_parallel"`
	FingerprintFaultySerial   string `json:"fingerprint_faulty_serial"`
	FingerprintFaultyParallel string `json:"fingerprint_faulty_parallel"`

	ReplaySpec   string   `json:"replay_spec"`
	ReplayEvents []string `json:"replay_events"`

	GOMAXPROCS int        `json:"gomaxprocs"`
	SLOs       []FleetSLO `json:"slos"`
	Pass       bool       `json:"pass"`
}

// rolloutDriveOut is one rollout drive's observable outcome.
type rolloutDriveOut struct {
	stats    cluster.Stats
	report   cluster.RolloutReport
	resolved bool
	onNew    int // live shards of alive machines serving the new generation at the end
	fp       uint64
	wall     time.Duration
}

// rolloutScale mirrors fleetScale: the 8-CPU headline is 1,000 machines;
// bigger per-machine templates narrow the fleet. Jobs keep every soak
// window under live load without dominating the wall clock.
func rolloutScale(m kernel.Machine) (machines, jobs int) {
	switch {
	case m.NumCPUs >= 1000:
		return 12, 720
	case m.NumCPUs >= 80:
		return 120, 7200
	default:
		return 1000, 60000
	}
}

// rolloutDrive runs one canary rollout over a seeded fleet workload.
// Machines at or above faultyFrom get a new generation that panics in init
// (faultyFrom >= machines means a clean campaign). The fingerprint folds
// per-machine counters, adapter versions, the rollout report, and every
// job's final control-plane record, so two drives agree on it only if they
// agree on the whole history.
func rolloutDrive(m kernel.Machine, machines, jobs, faultyFrom int, parallel bool) rolloutDriveOut {
	var cs conformance.Case
	for _, c := range conformance.Cases() {
		if c.Name == rolloutClass {
			cs = c
		}
	}
	if cs.NewModule == nil {
		panic(fmt.Sprintf("bench: conformance class %q has no upgradable module", rolloutClass))
	}
	cl := cluster.New(cluster.Config{
		Machines: machines,
		Machine:  m,
		Parallel: parallel,
		Policy:   conformance.PolicyTest,
		Placer:   cluster.LeastLoaded{},
		SetupModules: func(mi int, sk *kernel.ShardedKernel) []*enokic.Adapter {
			ads := make([]*enokic.Adapter, sk.NumShards())
			for s := 0; s < sk.NumShards(); s++ {
				k := sk.ShardKernel(s)
				ads[s] = enokic.Load(k, conformance.PolicyTest, enokic.DefaultConfig(),
					func(env core.Env) core.Scheduler { return cs.NewModule(env, k.NumCPUs()) })
				k.RegisterClass(conformance.PolicyCFS, kernel.NewCFS(k))
			}
			return ads
		},
	})
	defer cl.Close()

	rng := ktime.NewRand(0x5011ed70)
	for i := 0; i < jobs; i++ {
		cl.Submit(cluster.JobSpec{
			Cycles: 2 + rng.Intn(4),
			Run:    time.Duration(100+rng.Intn(200)) * time.Microsecond,
			Sleep:  time.Duration(rng.Intn(2)) * 200 * time.Microsecond,
		})
	}
	factory := func(mi int, env core.Env) core.Scheduler {
		sched := cs.NewModule(env, env.NumCPUs())
		if mi >= faultyFrom {
			return &schedtest.Injector{Scheduler: sched, PanicInInit: true}
		}
		return sched
	}
	ro, err := cl.Rollout(rolloutVersion, factory)
	if err != nil {
		panic(fmt.Sprintf("bench: StartRollout: %v", err))
	}
	start := time.Now()
	cl.Run(rolloutBudget)
	wall := time.Since(start)

	out := rolloutDriveOut{
		stats: cl.Stats(), resolved: ro.Done(),
		report: ro.Report(), wall: wall,
	}
	views := cl.Views()
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := 0; i < cl.NumMachines(); i++ {
		mc := cl.Machine(i)
		sk := mc.Sharded()
		word(mc.TasksSpawned())
		word(sk.CtxSwitches())
		word(sk.EventsFired())
		word(sk.Wakeups())
		word(uint64(sk.Now()))
		for _, ad := range mc.Adapters() {
			if ad == nil {
				continue
			}
			h.Write([]byte(ad.Version()))
			killed := uint64(0)
			if ad.Killed() {
				killed = 1
			}
			word(killed)
			if views[i].Alive && !ad.Killed() && ad.Version() == rolloutVersion {
				out.onNew++
			}
		}
	}
	for i := 0; i < cl.NumJobs(); i++ {
		j := cl.Job(i)
		word(uint64(j.State))
		word(uint64(int64(j.Machine)))
		word(uint64(j.Restarts)<<32 | uint64(j.Migrations))
		word(uint64(j.DoneAt))
	}
	h.Write([]byte(fmt.Sprintf("%+v", out.report)))
	out.fp = h.Sum64()
	return out
}

// RunRollout runs the rollout benchmark on the given per-machine template
// and assembles the verdicts.
func RunRollout(m kernel.Machine) *RolloutBenchResult {
	machines, jobs := rolloutScale(m)
	// The faulty generation starts a quarter of the way into the fleet: the
	// canary and at least one widening wave land clean before a wave crosses
	// the threshold, so the halt exercises rollback of genuinely upgraded
	// machines, not just the aborted wave.
	faultyFrom := machines / 4

	cleanS := rolloutDrive(m, machines, jobs, machines, false)
	cleanP := rolloutDrive(m, machines, jobs, machines, true)
	faultS := rolloutDrive(m, machines, jobs, faultyFrom, false)
	faultP := rolloutDrive(m, machines, jobs, faultyFrom, true)

	shards := 0
	if n := kernel.NewShardedKernel(m, kernel.CostsFor(m), 0); n != nil {
		shards = n.NumShards()
		n.Close()
	}
	r := &RolloutBenchResult{
		Machines: machines, MachineCPUs: m.NumCPUs, Shards: shards, Jobs: jobs,
		Class: rolloutClass, Version: rolloutVersion, Previous: cleanS.report.Previous,
		FaultyFrom: faultyFrom,
		Targets:    cleanS.report.Targets, Canary: cleanS.report.Canary,
		CleanWaves:                len(cleanS.report.Waves),
		WallCleanSerialMS:         float64(cleanS.wall) / float64(time.Millisecond),
		WallCleanParallelMS:       float64(cleanP.wall) / float64(time.Millisecond),
		WallFaultySerialMS:        float64(faultS.wall) / float64(time.Millisecond),
		WallFaultyParallelMS:      float64(faultP.wall) / float64(time.Millisecond),
		FaultyHaltedWave:          faultS.report.HaltedWave,
		FaultyRolledBack:          faultS.report.RolledBack,
		FaultyRollbackErrs:        faultS.report.RollbackErrs,
		FaultyDead:                faultS.report.Dead,
		FingerprintCleanSerial:    fmt.Sprintf("%016x", cleanS.fp),
		FingerprintCleanParallel:  fmt.Sprintf("%016x", cleanP.fp),
		FingerprintFaultySerial:   fmt.Sprintf("%016x", faultS.fp),
		FingerprintFaultyParallel: fmt.Sprintf("%016x", faultP.fp),
		ReplaySpec:                rolloutReplaySpec,
		GOMAXPROCS:                runtime.GOMAXPROCS(0),
	}
	slo := func(name, target, measured string, pass bool) {
		r.SLOs = append(r.SLOs, FleetSLO{Name: name, Target: target, Measured: measured, Pass: pass})
	}

	cr := cleanS.report
	slo("convergence", "clean rollout upgrades the whole fleet and completes",
		fmt.Sprintf("%d/%d machines healthy on %s in %d waves (resolved=%v)",
			cr.Upgraded, cr.Targets, rolloutVersion, len(cr.Waves), cleanS.resolved),
		cleanS.resolved && cr.Completed && !cr.Halted && cr.Upgraded == cr.Targets &&
			cleanS.onNew > 0)

	fr := faultS.report
	// The faulty region begins at faultyFrom, so every wave that stays below
	// it must pass and the first wave that crosses it must trip the halt.
	upgradedBeforeHalt := 0
	for _, w := range fr.Waves[:max(len(fr.Waves)-1, 0)] {
		upgradedBeforeHalt += len(w.Machines)
	}
	slo("canary_halt", "faulty generation halts the rollout at the wave that hits it",
		fmt.Sprintf("halted=%v wave=%d after %d clean upgrades (resolved=%v)",
			fr.Halted, fr.HaltedWave, upgradedBeforeHalt, faultS.resolved),
		faultS.resolved && fr.Halted && !fr.Completed && fr.HaltedWave >= 1 &&
			upgradedBeforeHalt > 0)

	slo("rollback", "halt restores every upgraded machine to the previous generation",
		fmt.Sprintf("%d rolled back (%d errs), %d shards left on %s, upgraded=%d",
			fr.RolledBack, fr.RollbackErrs, faultS.onNew, rolloutVersion, fr.Upgraded),
		faultS.resolved && fr.Upgraded == 0 && fr.RollbackErrs == 0 &&
			fr.RolledBack >= upgradedBeforeHalt && faultS.onNew == 0)

	slo("determinism", "serial and parallel drives fingerprint identically (clean and faulty)",
		fmt.Sprintf("clean %016x vs %016x, faulty %016x vs %016x",
			cleanS.fp, cleanP.fp, faultS.fp, faultP.fp),
		cleanS.fp == cleanP.fp && faultS.fp == faultP.fp)

	// The replay verdict: the pinned one-line spec regenerates its fault
	// plan, the campaign upholds every chaos-oracle invariant, and the
	// serial and parallel replays agree on the full rollout report.
	replayPass := false
	replayMeasured := ""
	if sched, err := chaos.Rollout.Parse(rolloutReplaySpec); err != nil {
		replayMeasured = fmt.Sprintf("spec does not parse: %v", err)
	} else {
		for _, ev := range sched.Enabled() {
			r.ReplayEvents = append(r.ReplayEvents, ev.String())
		}
		repS := chaos.Rollout.Run(sched, chaos.RolloutRunConfig{})
		repP := chaos.Rollout.Run(sched, chaos.RolloutRunConfig{Parallel: true})
		replayPass = len(repS.Violations) == 0 && len(repP.Violations) == 0 &&
			repS.Resolved && reflect.DeepEqual(repS.Report, repP.Report) &&
			repS.Report.Halted && repS.Report.RolledBack > 0 && repS.Report.Dead > 0
		replayMeasured = fmt.Sprintf(
			"%d events, %d+%d violations, halted=%v rolledback=%d dead=%d, reports identical=%v",
			len(r.ReplayEvents), len(repS.Violations), len(repP.Violations),
			repS.Report.Halted, repS.Report.RolledBack, repS.Report.Dead,
			reflect.DeepEqual(repS.Report, repP.Report))
	}
	slo("replay", fmt.Sprintf("seeded faulty campaign %q replays clean from its one-line spec", rolloutReplaySpec),
		replayMeasured, replayPass)

	r.Pass = true
	for _, s := range r.SLOs {
		r.Pass = r.Pass && s.Pass
	}
	return r
}

// WriteRolloutJSON runs the cluster sweep, the fleet benchmark, and the
// rollout benchmark — the full BENCH_cluster.json document — and writes it
// to path.
func WriteRolloutJSON(path string, m kernel.Machine) (*ClusterOutput, error) {
	out := RunCluster()
	out.Fleet = RunFleet(m)
	out.Rollout = RunRollout(m)
	return writeClusterDoc(path, out)
}
