package cluster_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"enoki/internal/cluster"
	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/record"
	"enoki/internal/schedtest/conformance"
)

// quietOutcome is everything a drive produces that quiet runs must leave
// untouched, plus the machines' own executor epochs, which they must not.
type quietOutcome struct {
	machines [][5]uint64 // spawned, events, ctx switches, wakeups, clock
	jobs     []cluster.Job
	stats    cluster.Stats
	logs     [][]byte // per machine, shard 0's record log (recorded drives)

	innerEpochs uint64
}

// quietDrive runs one seeded cluster drive, quiet (the default) or in
// lockstep: three to eight Machine8s, serial or parallel, up to three kills
// at random instants (some while the first starts are in flight), bounded
// steps with more jobs submitted between them, then RunUntilIdle — or, on
// every fourth seed, the FIFO module under a recorder on every machine,
// which never goes idle, so bounded steps only.
func quietDrive(seed uint64, lockstep bool) quietOutcome {
	rng := ktime.NewRand(seed)
	machines := 3 + rng.Intn(6)
	recorded := seed%4 == 0
	parallel := seed%2 == 1
	cfg := cluster.Config{Machines: machines, Machine: kernel.Machine8(), Parallel: &parallel}
	if rng.Intn(2) == 0 {
		cfg.Placer = &cluster.Pack{PerCPU: 1 + rng.Intn(3)}
	}
	recs := make([]*record.Recorder, machines)
	bufs := make([]*bytes.Buffer, machines)
	if recorded {
		var fifo conformance.Case
		for _, c := range conformance.Cases() {
			if c.Name == "fifo" {
				fifo = c
			}
		}
		cfg.Policy = conformance.PolicyTest
		cfg.Setup = func(mi int, sk *kernel.ShardedKernel) {
			k := sk.ShardKernel(0)
			ad := enokic.Load(k, conformance.PolicyTest, enokic.Config{},
				func(env core.Env) core.Scheduler { return fifo.NewModule(env, k.NumCPUs()) })
			k.RegisterClass(conformance.PolicyCFS, kernel.NewCFS(k))
			bufs[mi] = &bytes.Buffer{}
			recs[mi] = record.New(k, bufs[mi], conformance.PolicyCFS, record.DefaultCosts())
			ad.SetRecorder(recs[mi])
		}
	}
	cl := cluster.New(cfg)
	defer cl.Close()
	if lockstep {
		cl.Lockstep()
	}
	submit := func(n int) {
		for i := 0; i < n; i++ {
			cl.Submit(cluster.JobSpec{
				Cycles: 1 + rng.Intn(4),
				Run:    time.Duration(50+rng.Intn(300)) * time.Microsecond,
				Sleep:  time.Duration(rng.Intn(3)) * 100 * time.Microsecond,
			})
		}
	}
	dead := map[int]bool{}
	kill := func() {
		if v := rng.Intn(machines); !dead[v] && len(dead) < machines/2 {
			dead[v] = true
			cl.FailMachine(v, time.Duration(cl.Now())+time.Duration(60+rng.Intn(4000))*time.Microsecond)
		}
	}
	submit(10 + rng.Intn(80))
	for k := rng.Intn(3); k > 0; k-- {
		kill()
	}
	for s := rng.Intn(5); s > 0; s-- {
		cl.Run(time.Duration(50+rng.Intn(3000)) * time.Microsecond)
		if rng.Intn(3) == 0 {
			submit(rng.Intn(40))
		}
		if rng.Intn(4) == 0 {
			kill()
		}
	}
	if recorded {
		cl.Run(15 * time.Millisecond)
	} else {
		cl.RunUntilIdle()
		if rng.Intn(2) == 0 { // an idle step: clocks move, nothing fires
			cl.Run(time.Duration(1+rng.Intn(500)) * time.Microsecond)
		}
	}

	out := quietOutcome{stats: cl.Stats(), logs: make([][]byte, machines)}
	for i := 0; i < machines; i++ {
		m := cl.Machine(i)
		sk := m.Sharded()
		out.machines = append(out.machines, [5]uint64{m.TasksSpawned(), sk.EventsFired(), sk.CtxSwitches(), sk.Wakeups(), uint64(sk.Now())})
		out.innerEpochs += sk.Executor().Epochs()
		if recs[i] != nil {
			recs[i].Close()
			out.logs[i] = bufs[i].Bytes()
		}
	}
	for i := 0; i < cl.NumJobs(); i++ {
		out.jobs = append(out.jobs, cl.Job(i))
	}
	return out
}

// TestFleetQuietMatchesLockstep is the quiet-run oracle: over two dozen
// seeded drives — kills at random instants, bounded steps, submits between
// runs, serial and parallel, recorded modules — a cluster whose machines run
// ahead while the control plane is quiet must reproduce the lockstep drive
// exactly: every machine's events, context switches, wakeups and clock,
// every job record, every Stats field including Epochs, and every record
// log. The machines' own executors must have run fewer epochs, or no quiet
// run happened and the comparison proved nothing.
func TestFleetQuietMatchesLockstep(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			quiet, step := quietDrive(seed, false), quietDrive(seed, true)
			if quiet.innerEpochs >= step.innerEpochs {
				t.Errorf("machines ran %d executor epochs quiet, %d in lockstep: nothing ran ahead", quiet.innerEpochs, step.innerEpochs)
			}
			quiet.innerEpochs, step.innerEpochs = 0, 0
			if quiet.stats != step.stats {
				t.Fatalf("stats diverge:\nquiet    %+v\nlockstep %+v", quiet.stats, step.stats)
			}
			if quiet.stats.Done == 0 {
				t.Fatal("no job completed")
			}
			if !reflect.DeepEqual(quiet, step) {
				for i := range quiet.machines {
					if quiet.machines[i] != step.machines[i] {
						t.Errorf("machine %d: quiet %v, lockstep %v", i, quiet.machines[i], step.machines[i])
					}
				}
				t.Fatal("quiet and lockstep drives diverge")
			}
		})
	}
}
