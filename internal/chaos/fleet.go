// Fleet chaos: the recorded-fleet rig and the machine-kill family. Where the
// single-machine family sabotages one machine from the inside (module
// panics, IPI loss, timer skew), the fleet family sabotages the cluster from
// the outside: whole machines fail-stop mid-run and the control plane must
// detect each death, requeue the lost placements, and finish every job on
// the survivors. The same discipline applies as everywhere else in this
// package — every kill is a seeded draw over virtual time, so a failing
// fleet run replays bit-for-bit from its one-line spec string
// (`f1:<class>:<seed>:<mask>`), and the serial and worker-goroutine fleet
// drives of one spec must agree byte for byte. The rollout family
// (rollout.go) sabotages the same rig while it is changing.

package chaos

import (
	"bytes"
	"fmt"
	"time"

	"enoki/internal/cluster"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/record"
	"enoki/internal/schedtest/conformance"
)

// Fleet campaign shape: small enough to replay in a test, big enough that
// kills land while jobs are in flight and the survivors still have the
// capacity to finish everything.
const (
	fleetMachines = 10
	fleetJobs     = 60
	fleetBudget   = 60 * time.Millisecond
	// Fixed in the campaign's cluster config (not left to defaults) because
	// the oracle reasons about them: a done report sent just before a kill
	// is still in flight for fleetNetLatency, and the control plane keeps
	// accepting reports for a dead machine until detection fires.
	fleetNetLatency  = 50 * time.Microsecond
	fleetDetectDelay = 500 * time.Microsecond
)

// killSalt separates the kill-schedule stream from the workload stream that
// shares the campaign seed.
const killSalt uint64 = 0xd6e8feb86659fd93

// FleetEvent is one fault against the recorded fleet. Field meaning is
// plane-specific: MachineKill (f1:) and RolloutKill (r1:) fail-stop Machine
// at virtual time At (ns) — the fleet drops its in-flight messages, the
// control plane notices after its detection delay, and every placement it
// held is requeued; RolloutFaulty makes the new generation panic in init on
// machines >= Threshold; RolloutDelayDetect adds Delay to the cluster's
// failure-detection bound.
type FleetEvent struct {
	Plane     Plane
	Machine   int
	At        int64
	Threshold int
	Delay     int64
}

func (e FleetEvent) String() string {
	switch e.Plane {
	case PlaneMachineKill, PlaneRolloutKill:
		return fmt.Sprintf("%v[m%d@%v]", e.Plane, e.Machine, time.Duration(e.At))
	case PlaneRolloutFaulty:
		return fmt.Sprintf("%v[m>=%d]", e.Plane, e.Threshold)
	case PlaneRolloutDelayDetect:
		return fmt.Sprintf("%v[+%v]", e.Plane, time.Duration(e.Delay))
	default:
		return e.Plane.String()
	}
}

// FleetRun is what the rig harvests from one drive: the control-plane
// roll-up, every job's final state, and the raw per-(machine, shard) record
// bytes. A serial and a parallel drive of the same spec must match field
// for field, Logs byte for byte.
type FleetRun struct {
	Stats cluster.Stats
	Jobs  []cluster.Job
	Logs  [][][]byte
}

// fleetRig is the ten-machine recorded cluster the f1: and r1: families
// both sabotage: every machine loads the class's module above CFS on each
// shard with a record channel, and a seeded job mix is submitted up front.
type fleetRig struct {
	cl   *cluster.Cluster
	bufs [][]*bytes.Buffer
	recs [][]*record.Recorder
}

func newFleetRig(c conformance.Case, seed uint64, parallel bool, detect time.Duration, modCfg enokic.Config) *fleetRig {
	r := &fleetRig{
		bufs: make([][]*bytes.Buffer, fleetMachines),
		recs: make([][]*record.Recorder, fleetMachines),
	}
	policy := conformance.PolicyCFS
	if c.NewModule != nil {
		policy = conformance.PolicyTest
	}
	r.cl = cluster.New(cluster.Config{
		Machines:        fleetMachines,
		Machine:         kernel.Machine8(),
		Parallel:        &parallel,
		Policy:          policy,
		Placer:          &cluster.Pack{PerCPU: 2},
		RebalanceSpread: 3,
		NetLatency:      fleetNetLatency,
		DetectDelay:     detect,
		SetupModules: func(mi int, sk *kernel.ShardedKernel) []*enokic.Adapter {
			r.bufs[mi] = make([]*bytes.Buffer, sk.NumShards())
			r.recs[mi] = make([]*record.Recorder, sk.NumShards())
			ads := make([]*enokic.Adapter, sk.NumShards())
			for sh := range ads {
				k := sk.ShardKernel(sh)
				if ads[sh] = conformance.Mount(c, k, modCfg, nil).Adapter; ads[sh] != nil {
					r.bufs[mi][sh] = &bytes.Buffer{}
					r.recs[mi][sh] = record.New(k, r.bufs[mi][sh], conformance.PolicyCFS, record.DefaultCosts())
					ads[sh].SetRecorder(r.recs[mi][sh])
				}
			}
			return ads
		},
	})
	rng := ktime.NewRand(seed ^ workloadSalt)
	for i := 0; i < fleetJobs; i++ {
		r.cl.Submit(cluster.JobSpec{
			Cycles: 2 + rng.Intn(5),
			Run:    time.Duration(80+rng.Intn(250)) * time.Microsecond,
			Sleep:  time.Duration(rng.Intn(2)) * 150 * time.Microsecond,
		})
	}
	return r
}

// drive applies the enabled machine kills, runs the cluster for the
// campaign budget, and harvests the outcome. A fixed virtual budget, not
// RunUntilIdle: the record drain tasks tick forever, so a recorded cluster
// never goes idle (and an unresolved rollout would hold RunUntilIdle open
// anyway). The budget is part of the campaign definition — identical in
// both drives.
func (r *fleetRig) drive(enabled []FleetEvent) FleetRun {
	for _, ev := range enabled {
		if ev.Plane == PlaneMachineKill || ev.Plane == PlaneRolloutKill {
			r.cl.FailMachine(ev.Machine, time.Duration(ev.At))
		}
	}
	r.cl.Run(fleetBudget)
	out := FleetRun{Stats: r.cl.Stats(), Logs: make([][][]byte, fleetMachines)}
	for mi := range out.Logs {
		out.Logs[mi] = make([][]byte, len(r.bufs[mi]))
		for sh, rec := range r.recs[mi] {
			if rec != nil {
				rec.Close()
				out.Logs[mi][sh] = r.bufs[mi][sh].Bytes()
			}
		}
	}
	for i := 0; i < r.cl.NumJobs(); i++ {
		out.Jobs = append(out.Jobs, r.cl.Job(i))
	}
	return out
}

// logViolations is the rule both fleet oracles end on: the record logs
// survive whatever the faults did to the fleet.
func (r FleetRun) logViolations() []string {
	var v []string
	for mi, perShard := range r.Logs {
		for sh, l := range perShard {
			if l == nil {
				continue
			}
			if _, err := record.Load(bytes.NewReader(l)); err != nil {
				v = append(v, fmt.Sprintf("machine %d shard %d record log not decodable: %v", mi, sh, err))
			}
		}
	}
	return v
}

// generateFleet derives the f1: kill plan from a seed (the class does not
// shape it): one to three distinct victims (never a majority, so the
// survivors always have the capacity to finish the workload) with kill
// times early enough that placements are still in flight.
func generateFleet(seed uint64, _ string) []FleetEvent {
	rng := ktime.NewRand(seed ^ killSalt)
	n := 1 + rng.Intn(3)
	used := make(map[int]bool, n)
	evs := make([]FleetEvent, 0, n)
	for len(evs) < n {
		evs = append(evs, FleetEvent{
			Plane:   PlaneMachineKill,
			Machine: drawVictim(rng, used),
			At:      (int64(1) + int64(rng.Intn(4))) * int64(time.Millisecond),
		})
	}
	return evs
}

// drawVictim draws a machine no earlier kill of the plan claimed.
func drawVictim(rng *ktime.Rand, used map[int]bool) int {
	for {
		if m := rng.Intn(fleetMachines); !used[m] {
			used[m] = true
			return m
		}
	}
}

// FleetOutcome is one f1: run's observable result plus the oracle's verdict.
type FleetOutcome struct {
	Verdict
	FleetRun
	Schedule Schedule[FleetEvent]
}

// Fleet is the `f1:` family. Its configuration is the drive: true runs the
// fleet on worker goroutines.
var Fleet = &Family[FleetEvent, bool, FleetOutcome]{
	Prefix: "f1",
	events: generateFleet,
	Run:    runFleet,
}

// runFleet runs one kill schedule against the recorded fleet of the
// schedule's class and judges the outcome.
func runFleet(s Schedule[FleetEvent], parallel bool) FleetOutcome {
	c, ok := caseByName(s.Class)
	if !ok {
		return FleetOutcome{Schedule: s, Verdict: Verdict{[]string{fmt.Sprintf("unknown class %q", s.Class)}}}
	}
	rig := newFleetRig(c, s.Seed, parallel, fleetDetectDelay, enokic.Config{})
	defer rig.cl.Close()
	res := FleetOutcome{Schedule: s, FleetRun: rig.drive(s.Enabled())}
	res.Violations = fleetOracle(&res, rig.cl)
	return res
}

// fleetOracle evaluates the campaign's invariants. As with the single-
// machine oracle, every rule is a property any correct cluster must uphold
// under any kill plan, so the verdict never needs to know what the kills
// "should" have done.
func fleetOracle(r *FleetOutcome, cl *cluster.Cluster) []string {
	var v []string
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	kills := r.Schedule.Enabled()

	// Survivor accounting: exactly the killed machines are dead at the end.
	if want := fleetMachines - len(kills); r.Stats.MachinesAlive != want {
		add("machines alive: %d, want %d (%d kills)", r.Stats.MachinesAlive, want, len(kills))
	}
	// No lost jobs: the survivors always have the capacity (kills are a
	// minority by construction), so every submitted job must finish.
	if r.Stats.Done != r.Stats.Submitted {
		add("lost jobs: %d of %d completed within budget", r.Stats.Done, r.Stats.Submitted)
	}
	// No job may finish on a dead machine. A done report sent just before
	// the kill legitimately lands up to NetLatency later, and the control
	// plane keeps accepting a dead machine's reports until detection fires
	// — anything past that horizon is a stale-report guard failure.
	horizon := make(map[int]int64, len(kills)) // victim → kill time + slack
	for _, ev := range kills {
		horizon[ev.Machine] = ev.At + int64(fleetDetectDelay+fleetNetLatency)
	}
	for _, j := range r.Jobs {
		if h, dead := horizon[j.Machine]; dead && j.State == cluster.JobDone && int64(j.DoneAt) > h {
			add("job %d reported done on machine %d at %v, past its kill horizon %v",
				j.ID, j.Machine, time.Duration(j.DoneAt), time.Duration(h))
		}
	}
	// A dead machine's clock freezes: it can never advance past the fleet's
	// lookahead horizon beyond its kill time.
	for _, ev := range kills {
		if now := int64(cl.Machine(ev.Machine).Sharded().Now()); now >= int64(fleetBudget) {
			add("killed machine %d ran to the end of the budget (now %v, killed at %v)",
				ev.Machine, time.Duration(now), time.Duration(ev.At))
		}
	}
	return append(v, r.logViolations()...)
}
