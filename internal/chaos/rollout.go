// Rollout chaos: the fleet-rollout fault plane. The fleet campaign
// (fleet.go) sabotages a steady-state cluster; the rollout campaign
// sabotages the cluster while it is *changing* — a canary rollout of a new
// module generation is in flight when machines die, the new generation is
// seeded faulty above a threshold, or failure detection is delayed. The
// oracle holds the rollout machinery to its contract: the rollout always
// resolves, a halted rollout leaves no machine on the new generation, and
// the report's upgrade/rollback counts balance against the final slot
// states. As everywhere in this package, every fault is a seeded draw, so
// a failing run replays bit-for-bit from its one-line spec string
// (`r1:<class>:<seed>:<mask>`).

package chaos

import (
	"fmt"
	"time"

	"enoki/internal/cluster"
	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/ktime"
)

// Rollout campaign shape: the fleet family's ten-machine recorded cluster
// (fleetRig), with a canary rollout started at t=0 whose waves (canary 1,
// widen 2, 1ms soak) span the first handful of milliseconds — the window
// the fault draws target.
const (
	rolloutCanary  = 0.1
	rolloutWiden   = 2
	rolloutObserve = time.Millisecond
	rolloutVersion = "v2"
)

// rolloutSalt separates the rollout fault stream from the workload stream
// that shares the campaign seed.
const rolloutSalt uint64 = 0x94d049bb133111eb

// generateRollout derives the r1: fault plan from a seed (the class does not
// shape it). The first draw is always a machine kill timed inside the
// rollout's wave window; up to two more draws add a faulty new generation
// above a threshold, a detection delay, or a second kill (never more than
// two kills, so the survivors keep the capacity to finish the workload).
func generateRollout(seed uint64, _ string) []FleetEvent {
	rng := ktime.NewRand(seed ^ rolloutSalt)
	n := 1 + rng.Intn(3)
	evs := make([]FleetEvent, 0, n)
	kills := map[int]bool{}
	drawKill := func() FleetEvent {
		return FleetEvent{
			Plane:   PlaneRolloutKill,
			Machine: drawVictim(rng, kills),
			At:      int64(300*time.Microsecond) + int64(rng.Intn(3000))*int64(time.Microsecond),
		}
	}
	evs = append(evs, drawKill())
	for len(evs) < n {
		switch rng.Intn(3) {
		case 0:
			if len(kills) >= 2 {
				continue
			}
			evs = append(evs, drawKill())
		case 1:
			evs = append(evs, FleetEvent{
				Plane:     PlaneRolloutFaulty,
				Threshold: 1 + rng.Intn(fleetMachines-1),
			})
		case 2:
			evs = append(evs, FleetEvent{
				Plane: PlaneRolloutDelayDetect,
				Delay: int64(1+rng.Intn(3)) * int64(500*time.Microsecond),
			})
		}
	}
	return evs
}

// RolloutRunConfig tunes one rollout campaign run.
type RolloutRunConfig struct {
	// Parallel drives the fleet on worker goroutines; serial and parallel
	// runs of one schedule must agree byte for byte.
	Parallel bool
	// NoDeathResolve re-introduces the seeded bug where a dead machine's
	// in-flight rollout slot is never resolved and the wave barrier hangs.
	// The campaign exists to prove the oracle catches this.
	NoDeathResolve bool
}

// RolloutOutcome is one rollout campaign's observable result plus the
// oracle's verdict.
type RolloutOutcome struct {
	Verdict
	FleetRun
	Schedule Schedule[FleetEvent]
	// Resolved reports whether the rollout finished within the budget;
	// Report is only meaningful when it did (an unresolved rollout is
	// itself a violation).
	Resolved bool
	Report   cluster.RolloutReport
	Slots    []cluster.SlotStatus
}

// Rollout is the `r1:` family: the recorded fleet sabotaged while a canary
// rollout of a new module generation is in flight. It only admits classes
// with an upgradable module.
var Rollout = &Family[FleetEvent, RolloutRunConfig, RolloutOutcome]{
	Prefix:      "r1",
	needsModule: true,
	events:      generateRollout,
	Run:         runRollout,
}

// runRollout runs one rollout fault plan against the recorded fleet of the
// schedule's class: a canary rollout of a fresh generation starts at t=0 and
// the enabled faults land while its waves are in flight.
func runRollout(s Schedule[FleetEvent], rc RolloutRunConfig) RolloutOutcome {
	res := RolloutOutcome{Schedule: s}
	c, ok := caseByName(s.Class)
	if !ok || c.NewModule == nil {
		res.Violations = []string{fmt.Sprintf("class %q has no upgradable module", s.Class)}
		return res
	}

	detect := fleetDetectDelay
	faultyThreshold := fleetMachines // above every machine: no faults
	for _, ev := range s.Enabled() {
		switch ev.Plane {
		case PlaneRolloutDelayDetect:
			detect += time.Duration(ev.Delay)
		case PlaneRolloutFaulty:
			if ev.Threshold < faultyThreshold {
				faultyThreshold = ev.Threshold
			}
		}
	}

	rig := newFleetRig(c, s.Seed, rc.Parallel, detect, enokic.DefaultConfig())
	defer rig.cl.Close()
	ro, err := rig.cl.StartRollout(cluster.RolloutConfig{
		Version: rolloutVersion,
		Factory: func(mi int, env core.Env) core.Scheduler {
			return newGeneration(c, env, env.NumCPUs(), mi >= faultyThreshold)
		},
		Canary: rolloutCanary, Widen: rolloutWiden, Observe: rolloutObserve,
		NoDeathResolve: rc.NoDeathResolve,
	})
	if err != nil {
		res.Violations = []string{fmt.Sprintf("StartRollout: %v", err)}
		return res
	}
	res.FleetRun = rig.drive(s.Enabled())
	res.Resolved, res.Report, res.Slots = ro.Done(), ro.Report(), ro.Slots()
	res.Violations = rolloutOracle(&res, rig.cl)
	return res
}

// rolloutOracle evaluates the rollout invariants. Every rule is a property
// any correct rollout machinery must uphold under any fault plan drawn
// from this plane, so the verdict never needs to know what the faults
// "should" have done.
func rolloutOracle(r *RolloutOutcome, cl *cluster.Cluster) []string {
	var v []string
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	// The rollout always resolves: every wave barrier is retired by acks
	// or by death detection. An unresolved rollout at the end of a budget
	// an order of magnitude past the wave span is the hang this plane
	// exists to catch.
	if !r.Resolved {
		add("rollout unresolved at end of budget: a wave barrier hung")
		return v // the remaining rules assume a final report
	}

	rep := r.Report
	// Upgrade/rollback report counts balance against the final slot
	// states, and no slot is stuck in a transient state.
	var healthy, rolledBack, dead, pending int
	for _, sl := range r.Slots {
		switch sl.State {
		case cluster.SlotHealthy:
			healthy++
		case cluster.SlotRolledBack:
			rolledBack++
		case cluster.SlotDead:
			dead++
		case cluster.SlotPending:
			pending++
		default:
			add("machine %d stuck in transient rollout state %v", sl.Machine, sl.State)
		}
	}
	if healthy != rep.Upgraded || rolledBack != rep.RolledBack || dead != rep.Dead {
		add("report counts unbalanced: upgraded %d/%d, rolled back %d/%d, dead %d/%d (slots/report)",
			healthy, rep.Upgraded, rolledBack, rep.RolledBack, dead, rep.Dead)
	}
	if healthy+rolledBack+dead+pending != rep.Targets {
		add("slots don't cover targets: %d+%d+%d+%d != %d", healthy, rolledBack, dead, pending, rep.Targets)
	}

	if rep.Halted {
		// A halted rollout leaves no machine upgraded...
		if rep.Upgraded != 0 {
			add("halted rollout reports %d machines still upgraded", rep.Upgraded)
		}
		// ...and at least one verdict must justify the halt.
		justified := false
		for _, vd := range rep.Verdicts {
			if !vd.Healthy {
				justified = true
			}
		}
		if !justified {
			add("halted rollout has no failing verdict")
		}
		// No machine left on the new module after a halted rollout: every
		// alive machine's every live shard serves the previous generation.
		views := cl.Views()
		for mi := 0; mi < cl.NumMachines(); mi++ {
			if !views[mi].Alive {
				continue
			}
			for sh, ad := range cl.Machine(mi).Adapters() {
				if ad == nil || ad.Killed() {
					continue
				}
				if ad.Version() == rolloutVersion {
					add("halted rollout left machine %d shard %d on %s", mi, sh, rolloutVersion)
				}
			}
		}
	} else if rep.Completed {
		// A completed rollout converged: every surviving target serves the
		// new generation on every live shard.
		views := cl.Views()
		for _, sl := range r.Slots {
			if sl.State != cluster.SlotHealthy {
				continue
			}
			if !views[sl.Machine].Alive {
				continue // died after resolution; nothing to check
			}
			for sh, ad := range cl.Machine(sl.Machine).Adapters() {
				if ad == nil || ad.Killed() {
					continue
				}
				if ad.Version() != rolloutVersion {
					add("completed rollout left machine %d shard %d on %s", sl.Machine, sh, ad.Version())
				}
			}
		}
	} else {
		add("resolved rollout neither completed nor halted: %+v", rep)
	}

	// The cluster still delivers: kills are a minority by construction, so
	// every submitted job finishes within the budget.
	if r.Stats.Done != r.Stats.Submitted {
		add("lost jobs: %d of %d completed within budget", r.Stats.Done, r.Stats.Submitted)
	}
	return append(v, r.logViolations()...)
}
