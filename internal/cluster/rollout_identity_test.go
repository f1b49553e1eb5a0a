package cluster_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"enoki/internal/cluster"
	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/record"
	"enoki/internal/schedtest"
	"enoki/internal/schedtest/conformance"
)

// rolloutRun is everything a fleet drive with a rollout produces that must
// be identical between serial and parallel modes.
type rolloutRun struct {
	logs   [][][]byte // [machine][shard]
	jobs   []cluster.Job
	stats  cluster.Stats
	report cluster.RolloutReport
}

// recordRolloutRun drives one seeded cluster workload for case c with a
// canary rollout of a new module generation started at t=0. When faulty is
// true the new generation panics in init on every machine, so the canary
// wave trips the transactional rollback and the rollout halts.
func recordRolloutRun(c conformance.Case, m kernel.Machine, seed uint64, parallel, faulty bool) rolloutRun {
	const machines = 10
	bufs := make([][]*bytes.Buffer, machines)
	recs := make([][]*record.Recorder, machines)
	cl := cluster.New(cluster.Config{
		Machines:        machines,
		Machine:         m,
		Parallel:        &parallel,
		Policy:          conformance.PolicyTest,
		Placer:          &cluster.Pack{PerCPU: 2},
		RebalanceSpread: 3,
		SetupModules: func(mi int, sk *kernel.ShardedKernel) []*enokic.Adapter {
			bufs[mi] = make([]*bytes.Buffer, sk.NumShards())
			recs[mi] = make([]*record.Recorder, sk.NumShards())
			ads := make([]*enokic.Adapter, sk.NumShards())
			for s := 0; s < sk.NumShards(); s++ {
				k := sk.ShardKernel(s)
				ads[s] = enokic.Load(k, conformance.PolicyTest, enokic.DefaultConfig(),
					func(env core.Env) core.Scheduler { return c.NewModule(env, k.NumCPUs()) })
				k.RegisterClass(conformance.PolicyCFS, kernel.NewCFS(k))
				bufs[mi][s] = &bytes.Buffer{}
				recs[mi][s] = record.New(k, bufs[mi][s], conformance.PolicyCFS, record.DefaultCosts())
				ads[s].SetRecorder(recs[mi][s])
			}
			return ads
		},
	})
	defer cl.Close()

	rng := ktime.NewRand(seed)
	for i := 0; i < 80; i++ {
		cl.Submit(cluster.JobSpec{
			Cycles: 2 + rng.Intn(5),
			Run:    time.Duration(80+rng.Intn(250)) * time.Microsecond,
			Sleep:  time.Duration(rng.Intn(2)) * 150 * time.Microsecond,
		})
	}
	factory := func(mi int, env core.Env) core.Scheduler {
		s := c.NewModule(env, env.NumCPUs())
		if faulty {
			return &schedtest.Injector{Scheduler: s, PanicInInit: true}
		}
		return s
	}
	r, err := cl.Rollout("v2", factory)
	if err != nil {
		panic(err)
	}
	// Fixed virtual budgets, not RunUntilIdle: the record drain tasks tick
	// forever, so a recorded cluster never goes idle. First let the rollout
	// resolve (waves finish within a few ms), then put fresh load on the
	// post-rollout fleet and kill a machine under it so the run also
	// exercises failover — deterministically in both drives.
	cl.Run(25 * time.Millisecond)
	if !r.Done() {
		panic("rollout unresolved within the run budget")
	}
	for i := 0; i < 80; i++ {
		cl.Submit(cluster.JobSpec{
			Cycles: 12 + rng.Intn(8),
			Run:    time.Duration(80+rng.Intn(250)) * time.Microsecond,
			Sleep:  time.Duration(rng.Intn(2)) * 150 * time.Microsecond,
		})
	}
	cl.FailMachine(3, 30*time.Millisecond)
	cl.Run(35 * time.Millisecond)

	out := rolloutRun{logs: make([][][]byte, machines), stats: cl.Stats(), report: r.Report()}
	for mi := 0; mi < machines; mi++ {
		out.logs[mi] = make([][]byte, len(bufs[mi]))
		for s := range bufs[mi] {
			recs[mi][s].Close()
			out.logs[mi][s] = bufs[mi][s].Bytes()
		}
	}
	for i := 0; i < cl.NumJobs(); i++ {
		out.jobs = append(out.jobs, cl.Job(i))
	}
	return out
}

// TestRolloutIdentity is the rollout determinism oracle: for three
// scheduler classes on a ten-machine fleet, a canary rollout — clean
// convergence in one variant, canary failure plus fleet rollback in the
// other — must produce byte-identical per-(machine, shard) record logs,
// identical control-plane outcomes, and an identical RolloutReport between
// the serial and worker-goroutine fleet drives. Under -race this is the
// data-race gate for the rollout stack.
func TestRolloutIdentity(t *testing.T) {
	classes := map[string]kernel.Machine{
		"fifo":     kernel.Machine8(),
		"wfq":      kernel.MachineNUMA("fleet16", 2, 2, 4),
		"shinjuku": kernel.Machine8(),
	}
	for _, c := range conformance.Cases() {
		m, ok := classes[c.Name]
		if !ok || c.NewModule == nil {
			continue
		}
		c := c
		for _, variant := range []struct {
			name   string
			faulty bool
		}{{"clean", false}, {"canaryfail", true}} {
			variant := variant
			t.Run(c.Name+"/"+variant.name, func(t *testing.T) {
				t.Parallel()
				seed := uint64(0x8011ed) ^ uint64(len(c.Name))
				serial := recordRolloutRun(c, m, seed, false, variant.faulty)
				par := recordRolloutRun(c, m, seed, true, variant.faulty)

				if serial.stats != par.stats {
					t.Fatalf("stats diverge:\nserial   %+v\nparallel %+v", serial.stats, par.stats)
				}
				if !reflect.DeepEqual(serial.report, par.report) {
					t.Fatalf("rollout reports diverge:\nserial   %+v\nparallel %+v", serial.report, par.report)
				}
				if len(serial.jobs) != len(par.jobs) {
					t.Fatalf("job counts diverge: %d vs %d", len(serial.jobs), len(par.jobs))
				}
				for i := range serial.jobs {
					if serial.jobs[i] != par.jobs[i] {
						t.Fatalf("job %d diverges:\nserial   %+v\nparallel %+v", i, serial.jobs[i], par.jobs[i])
					}
				}
				for mi := range serial.logs {
					for s := range serial.logs[mi] {
						if !bytes.Equal(serial.logs[mi][s], par.logs[mi][s]) {
							t.Fatalf("machine %d shard %d: record logs diverge (%d vs %d bytes)",
								mi, s, len(serial.logs[mi][s]), len(par.logs[mi][s]))
						}
					}
				}
				// The run must have exercised the paths it claims to pin.
				rep := serial.report
				if variant.faulty {
					if !rep.Halted || rep.Upgraded != 0 || rep.RolledBack == 0 {
						t.Fatalf("canary failure not exercised: %+v", rep)
					}
				} else {
					if !rep.Completed || rep.Upgraded != 10 || rep.Halted {
						t.Fatalf("clean rollout did not converge: %+v", rep)
					}
				}
				st := serial.stats
				if st.Done != st.Submitted {
					t.Fatalf("only %d/%d jobs completed", st.Done, st.Submitted)
				}
				if st.Lost == 0 {
					t.Fatal("machine failure lost no placements — failover path not exercised")
				}
				total := 0
				for _, perShard := range serial.logs {
					for _, l := range perShard {
						total += len(l)
					}
				}
				if total == 0 {
					t.Fatal("record logs are empty — modules saw no scheduling traffic")
				}
			})
		}
	}
}
