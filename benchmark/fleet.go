package main

import (
	"math/rand"
	"time"

	"enoki"
)

// fleetInput is the committed fleet drive scaled down: every job submitted at
// t=0 to a fleet of Machine8s, one machine fail-stopped while jobs are in
// flight. Per-job cost rises with backlog per machine, so the size is frozen.
type fleetInput struct {
	machines int
	specs    []enoki.JobSpec
	killAt   time.Duration
}

func fleetWorkload() workload {
	return workload{Name: "fleet_jobs", Op: "job done",
		Why: "sim.Fleet epochs, the cluster control plane and kernel spawn/exit do the work; crossing and vpol do none: the one-machine 2.2M vs fleet 320k events/s question",
		New: func(seed uint64, sz size) func(*tracer) rig {
			in := genFleet(seed, sz)
			return func(tr *tracer) rig { return buildFleet(in, tr) }
		},
		Rung: func(seed uint64, sz size) func() rig {
			in := genFleet(seed, sz)
			return func() rig { return buildMachineOnly(in) }
		}}
}

// genFleet draws the job specs with the committed fleet drive's ranges: 2-4
// cycles of 100-300 µs, half of the jobs sleeping 200 µs between cycles.
func genFleet(seed uint64, sz size) *fleetInput {
	rng := rand.New(rand.NewSource(int64(seed)))
	in := &fleetInput{machines: sz.FleetMachines, killAt: sz.FleetKillAt,
		specs: make([]enoki.JobSpec, sz.FleetMachines*sz.FleetJobsPerMachine)}
	for i := range in.specs {
		in.specs[i] = enoki.JobSpec{
			Name:   "job",
			Cycles: 2 + rng.Intn(3),
			Run:    time.Duration(100+rng.Intn(200)) * time.Microsecond,
			Sleep:  time.Duration(rng.Intn(2)) * 200 * time.Microsecond,
		}
	}
	return in
}

type fleetRig struct {
	in *fleetInput
	cl *enoki.Cluster
}

func buildFleet(in *fleetInput, tr *tracer) *fleetRig {
	placer := enoki.PlacerByName("leastloaded")
	opts := []enoki.ClusterOption{
		enoki.WithMachines(in.machines),
		enoki.WithMachineTemplate(enoki.Machine8()),
	}
	if tr != nil {
		placer = tracePlacer(tr, placer)
		// The default set-up registers CFS per shard; this does the same
		// behind the span decorator.
		opts = append(opts, enoki.WithMachineSetup(func(_ int, sk *enoki.ShardedKernel) {
			for i := 0; i < sk.NumShards(); i++ {
				k := sk.ShardKernel(i)
				k.RegisterClass(policyCFS, traceClass(tr, "cfs", enoki.NewCFS(k)))
			}
		}))
	}
	cl := enoki.NewCluster(append(opts, enoki.WithClusterPlacer(placer))...)
	for _, spec := range in.specs {
		cl.Submit(spec)
	}
	cl.FailMachine(in.machines/3, in.killAt)
	return &fleetRig{in: in, cl: cl}
}

func (r *fleetRig) Run() { r.cl.RunUntilIdle() }

func (r *fleetRig) Check() outcome {
	cl := r.cl
	st := cl.Stats()
	o := outcome{Ops: uint64(len(r.in.specs)), Counters: make(map[string]float64)}
	d := newDigest()
	for i := 0; i < cl.NumMachines(); i++ {
		m := cl.Machine(i)
		sk := m.Sharded()
		d.word(m.TasksSpawned(), sk.CtxSwitches(), sk.EventsFired(), sk.Wakeups(), uint64(sk.Now()))
	}
	var notDone, restarts uint64
	for i := 0; i < cl.NumJobs(); i++ {
		j := cl.Job(i)
		if j.State != enoki.JobDone {
			notDone++
		}
		restarts += uint64(j.Restarts)
		d.word(uint64(j.State), uint64(int64(j.Machine)), uint64(j.Restarts), uint64(j.Migrations), uint64(j.DoneAt))
	}
	o.Digest = d.sum()
	if notDone > 0 || st.Done != len(r.in.specs) {
		o.fail(max(notDone, 1), "%d of %d jobs done, %d not in JobDone", st.Done, len(r.in.specs), notDone)
	}
	if st.Lost == 0 {
		o.fail(1, "machine %d was killed at %v but no placement was lost: the kill missed the run", r.in.machines/3, r.in.killAt)
	}
	o.P50, o.P99, o.Samples = st.E2EP50, st.E2EP99, uint64(st.Done)
	o.Ctx, o.Events = st.CtxSwitches, st.EventsFired
	c := o.Counters
	c["kernel.tasks_spawned"] = float64(st.TasksSpawned)
	c["fleet.epochs"] = float64(st.Epochs)
	c["fleet.msgs"] = float64(st.MsgsSent)
	c["fleet.msgs_dropped"] = float64(st.MsgsDropped)
	c["cluster.lost"] = float64(st.Lost)
	c["cluster.restarts"] = float64(restarts)
	_ = cl.Close() // first Close of a Cluster this rig built cannot fail
	return o
}

// machineOnlyRig is the differencing rung for the fleet and the control
// plane: the identical cycle/run/sleep job bodies spawned round-robin on
// standalone Systems, with no cluster, no fleet epochs and no kill.
type machineOnlyRig struct {
	in      *fleetInput
	systems []*enoki.System
	exited  int
}

func buildMachineOnly(in *fleetInput) *machineOnlyRig {
	r := &machineOnlyRig{in: in}
	for i := 0; i < in.machines; i++ {
		sys := enoki.NewSystem(enoki.WithMachine(enoki.Machine8()), enoki.WithShards(0))
		sys.RegisterCFS(policyCFS)
		r.systems = append(r.systems, sys)
	}
	return r
}

// Run spawns inside the timed region, as the cluster's machine agents do.
func (r *machineOnlyRig) Run() {
	for i, spec := range r.in.specs {
		left := spec.Cycles
		r.systems[i%len(r.systems)].ShardKernel(0).Spawn(spec.Name, policyCFS,
			enoki.BehaviorFunc(func(*enoki.Kernel, *enoki.Task) enoki.Action {
				if left <= 0 {
					return enoki.Action{Op: enoki.OpExit}
				}
				left--
				if spec.Sleep > 0 {
					return enoki.Action{Run: spec.Run, Op: enoki.OpSleep, SleepFor: spec.Sleep}
				}
				return enoki.Action{Run: spec.Run, Op: enoki.OpYield}
			}), enoki.WithExitObserver(func() { r.exited++ }))
	}
	for _, sys := range r.systems {
		sys.RunUntilIdle()
	}
}

func (r *machineOnlyRig) Check() outcome {
	o := outcome{Ops: uint64(len(r.in.specs))}
	if r.exited != len(r.in.specs) {
		o.fail(uint64(len(r.in.specs)-r.exited), "%d of %d job tasks exited", r.exited, len(r.in.specs))
	}
	for _, sys := range r.systems {
		o.Events += sys.Sharded().EventsFired()
		_ = sys.Close() // first Close of a System this rig built cannot fail
	}
	return o
}
