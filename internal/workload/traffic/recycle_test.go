package traffic_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/overload"
	"enoki/internal/sched/shinjuku"
	"enoki/internal/workload/traffic"
)

// overloadScenario is the committed overload plan (internal/bench) on
// Machine80 with its windows placed as fractions of a shorter dur — what the
// performance ledger's traffic_overload runs, and the load the request path
// is tuned on: two-microsecond edge requests, a fanned-out service tier
// under a Go module, an unlimited antagonist, keep-alive follow-ups, shed
// retries, a flash crowd and a churn storm.
func overloadScenario(seed uint64, dur time.Duration) traffic.Scenario {
	return traffic.Scenario{
		Seed:       seed,
		Rate:       70_000 * 80,
		Duration:   dur,
		DiurnalAmp: 0.3,
		Classes: []traffic.Class{
			{Name: "edge", Policy: policyCFS, Admission: 0, Weight: 0.85,
				Work: 2 * time.Microsecond, ReqPerConn: 2, Think: 500 * time.Microsecond},
			{Name: "api", Policy: policyTest, Admission: 1, Weight: 0.10,
				Work: 20 * time.Microsecond, Fanout: 2, ReqPerConn: 2, Think: 300 * time.Microsecond},
			{Name: "antag", Policy: policyCFS, Admission: 2, Weight: 0.05,
				Work: 20 * time.Microsecond},
		},
		Regions: []traffic.Region{
			{Name: "us", Share: 0.5},
			{Name: "eu", Share: 0.5, Offset: dur / 2},
		},
		Shapes: []traffic.Shape{
			{Kind: traffic.Antagonist, Class: 2, At: dur / 10, Dur: dur / 4, Mult: 3},
			{Kind: traffic.Flash, Class: 1, At: dur * 11 / 20, Dur: dur / 5, Mult: 6},
			{Kind: traffic.Churn, Class: 0, At: dur * 43 / 50, Dur: dur * 3 / 25, Mult: 1},
		},
	}
}

// overloadAdmission is that plan's admission side, budgets per 40-CPU shard.
func overloadAdmission() overload.Config {
	const cpus = 40
	return overload.Config{Classes: []overload.ClassConfig{
		{Name: "edge", Policy: policyCFS, MaxInflight: 64 * cpus, MaxRetries: 1, Backoff: 300 * time.Microsecond},
		{Name: "api", Policy: policyTest, MaxInflight: 12 * cpus, MaxRetries: 2, Backoff: 150 * time.Microsecond,
			EnterDepth: 5 * cpus, ExitDepth: cpus},
		{Name: "antag", Policy: policyCFS},
	}}
}

// TestTrafficRecyclingIdentity: recycling task records changes no result.
// Every drive runs twice, once as shipped and once with the request tasks
// on Kernel.Spawn, where no record is ever reused; reports, latency
// histograms, engine event counts, context switches and module statistics
// must be identical shard by shard — over the shortened overload scenario
// for five seeds, and over a module kill in the middle
// of a flash crowd, where the rehome walks a pid table that has slid and
// moves tasks living in recycled records.
func TestTrafficRecyclingIdentity(t *testing.T) {
	type arm struct {
		name string
		rig  rig
	}
	var arms []arm
	for seed := uint64(1); seed <= 5; seed++ {
		arms = append(arms, arm{fmt.Sprint("overload/seed", seed),
			rig{sc: overloadScenario(seed, 5*time.Millisecond), adm: overloadAdmission, noRecord: true}})
	}
	arms = append(arms, arm{"module-kill", rig{sc: scenario(), panicAt: 1500, noRecord: true}})
	for _, a := range arms {
		t.Run(a.name+"/serial", func(t *testing.T) {
			r := a.rig
			recycled := r.drive(t)
			r.plainSpawn = true
			plain := r.drive(t)
			if len(recycled.rep.Violations) != 0 || recycled.rep.Requests == 0 {
				t.Fatalf("%d requests, violations %v", recycled.rep.Requests, recycled.rep.Violations)
			}
			if recycled.killed != (r.panicAt > 0) {
				t.Fatalf("module killed = %v", recycled.killed)
			}
			if a, b := recycled.rep.Fingerprint(), plain.rep.Fingerprint(); a != b {
				t.Errorf("fingerprint %x recycled, %x plain", a, b)
			}
			if !reflect.DeepEqual(recycled.rep, plain.rep) {
				t.Errorf("reports differ:\nrecycled %+v\nplain    %+v", recycled.rep, plain.rep)
			}
			if !reflect.DeepEqual(recycled.fired, plain.fired) || !reflect.DeepEqual(recycled.ctx, plain.ctx) {
				t.Errorf("events fired %v / %v, context switches %v / %v (recycled / plain)",
					recycled.fired, plain.fired, recycled.ctx, plain.ctx)
			}
			if !reflect.DeepEqual(recycled.stats, plain.stats) {
				t.Errorf("module stats differ:\nrecycled %+v\nplain    %+v", recycled.stats, plain.stats)
			}
		})
	}
}

// TestTrafficRequestAllocs is the request path's allocation ratchet, counted
// as the ledger counts (runtime.MemStats over the run region, rig set-up
// excluded, a cold rig — slabs, free lists and wheel buffers grow inside the
// count): one request's whole life, with its follow-up request, its retries
// and its fan-out, allocates nothing once the rig is warm. The task record,
// enokic's per-task record and Shinjuku's are all the last tenant's; what is
// left is the free lists and wheel buffers growing to the in-flight peak
// (this short run is mostly that ramp) and the token arena's chunks. It was
// 6.3 allocations and 900 bytes when every spawn built three closures and a
// Task and every deferred offer another, and 1.01 and 209 bytes while both
// module-side records were still allocated per task.
func TestTrafficRequestAllocs(t *testing.T) {
	m := kernel.Machine80()
	sk := kernel.NewShardedKernel(m, kernel.CostsFor(m), m.NumNodes, 0)
	sc := overloadScenario(1, 10*time.Millisecond)
	var drivers []*traffic.Driver
	for i := 0; i < sk.NumShards(); i++ {
		k := sk.ShardKernel(i)
		enokic.Load(k, policyTest, enokic.DefaultConfig(), func(env core.Env) core.Scheduler {
			return shinjuku.New(env, policyTest, 0)
		})
		k.RegisterClass(policyCFS, kernel.NewCFS(k))
		d := traffic.NewDriver(k, sc, traffic.DriverConfig{
			Controller: overload.New(overloadAdmission()), Shard: i, Shards: sk.NumShards(),
			SampleEvery: 250 * time.Microsecond,
		})
		d.Start()
		drivers = append(drivers, d)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sk.RunFor(sc.Duration + 10*time.Millisecond)
	runtime.ReadMemStats(&after)
	rep := traffic.Collect(drivers...)
	if len(rep.Violations) != 0 || rep.Total.Retried == 0 || rep.Classes[1].Completed == 0 {
		t.Fatalf("run region missed its load: violations %v, %d retried, %d fan-out requests",
			rep.Violations, rep.Total.Retried, rep.Classes[1].Completed)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(rep.Requests)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(rep.Requests)
	t.Logf("%d requests: %.3f allocs and %.0f B per request", rep.Requests, allocs, bytes)
	if allocs > 0.25 || bytes > 180 {
		t.Fatalf("one request costs %.3f allocs and %.0f B, want <= 0.25 and <= 180", allocs, bytes)
	}
}
