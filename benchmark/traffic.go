package main

import (
	"time"

	"enoki"
)

// trafficInput is the committed overload scenario on Machine80, shortened: an
// open-loop plan (diurnal curve, antagonist tenant, flash crowd, churn storm)
// against shinjuku for the api class behind admission and brownout. The seed
// is the scenario's own Seed — arrival jitter and service times.
type trafficInput struct {
	sc    enoki.TrafficScenario
	drain time.Duration
}

func trafficWorkload() workload {
	return workload{Name: "traffic_overload", Op: "request",
		Why: "the kernel used the other way round from the pipes: a short-lived task per request, open-loop arrivals, preemption timers, admission/shed/retry, brownout, about one sharded epoch per virtual us",
		New: func(seed uint64, sz size) func(*tracer) rig {
			in := &trafficInput{sc: overloadScenario(seed, sz.TrafficDuration), drain: sz.TrafficDrain}
			return func(tr *tracer) rig { return buildTraffic(in, tr) }
		}}
}

// overloadScenario is the plan of the committed overload artifact, its
// windows placed as fractions of dur so a shorter run keeps every phase.
func overloadScenario(seed uint64, dur time.Duration) enoki.TrafficScenario {
	return enoki.TrafficScenario{
		Seed:       seed,
		Rate:       70_000 * tickCPUs,
		Duration:   dur,
		DiurnalAmp: 0.3,
		Classes: []enoki.TrafficClass{
			{Name: "edge", Policy: policyCFS, Admission: 0, Weight: 0.85,
				Work: 2 * time.Microsecond, ReqPerConn: 2, Think: 500 * time.Microsecond},
			{Name: "api", Policy: policyTest, Admission: 1, Weight: 0.10,
				Work: 20 * time.Microsecond, Fanout: 2, ReqPerConn: 2, Think: 300 * time.Microsecond},
			{Name: "antag", Policy: policyCFS, Admission: 2, Weight: 0.05,
				Work: 20 * time.Microsecond},
		},
		Regions: []enoki.TrafficRegion{
			{Name: "us", Share: 0.5},
			{Name: "eu", Share: 0.5, Offset: dur / 2},
		},
		Shapes: []enoki.TrafficShape{
			{Kind: enoki.TrafficAntagonist, Class: 2, At: dur / 10, Dur: dur / 4, Mult: 3},
			{Kind: enoki.TrafficFlash, Class: 1, At: dur * 11 / 20, Dur: dur / 5, Mult: 6},
			{Kind: enoki.TrafficChurn, Class: 0, At: dur * 43 / 50, Dur: dur * 3 / 25, Mult: 1},
		},
	}
}

type trafficRig struct {
	in  *trafficInput
	sys *enoki.System
	rep enoki.TrafficReport
}

func buildTraffic(in *trafficInput, tr *tracer) *trafficRig {
	m := enoki.Machine80()
	cpus := m.NumCPUs / m.NumNodes // admission budgets are per shard
	sys := enoki.NewSystem(enoki.WithMachine(m), enoki.WithShards(0),
		enoki.WithAdmission(
			enoki.AdmissionClass{Name: "edge", Policy: policyCFS, MaxInflight: 64 * cpus, MaxRetries: 1,
				Backoff: 300 * time.Microsecond},
			enoki.AdmissionClass{Name: "api", Policy: policyTest, MaxInflight: 12 * cpus, MaxRetries: 2,
				Backoff: 150 * time.Microsecond},
			enoki.AdmissionClass{Name: "antag", Policy: policyCFS}),
		enoki.WithBrownout(1, 5*cpus, cpus))
	sys.MustAttach(policyTest, enoki.GoModule(traceScheduler(tr, func(env enoki.Env) enoki.Scheduler {
		return enoki.NewShinjukuScheduler(env, policyTest, 0)
	})))
	registerCFS(sys, tr)
	return &trafficRig{in: in, sys: sys}
}

func (r *trafficRig) Run() { r.rep = r.sys.DriveTraffic(r.in.sc, r.in.drain) }

func (r *trafficRig) Check() outcome {
	rep := r.rep
	o := outcome{Ops: rep.Requests, Counters: make(map[string]float64)}
	for _, v := range rep.Violations {
		o.fail(1, "conservation: %s", v)
	}
	if t := rep.Total; t.Offered != t.Admitted+t.Shed {
		o.fail(1, "offered %d != admitted %d + shed %d", t.Offered, t.Admitted, t.Shed)
	}
	ks := shardKernels(r.sys)
	d := newDigest()
	d.word(rep.Fingerprint())
	for _, k := range ks {
		d.kernel(k)
	}
	o.Digest = d.sum()
	api := rep.Classes[1]
	o.P50, o.P99, o.Samples = api.P50, api.P99, api.Completed
	o.Ctx, o.Events = kernelCounters(o.Counters, ks...)
	c := o.Counters
	var enokicMsgs, pntErrs, deferred float64
	for _, ad := range r.sys.Adapters() {
		st := ad.Stats()
		enokicMsgs += float64(st.Messages)
		pntErrs += float64(st.PntErrs)
		deferred += float64(st.Deferred)
		if ad.Killed() {
			o.fail(1, "module was killed: %v", ad.Failure())
		}
	}
	c["enokic.msgs"], c["enokic.pnt_errs"], c["enokic.deferred"] = enokicMsgs, pntErrs, deferred
	ex := r.sys.Sharded().Executor()
	c["sharded.epochs"] = float64(ex.Epochs())
	c["sharded.msgs"] = float64(ex.MsgsSent())
	c["sharded.cross_wakes"] = float64(r.sys.Sharded().CrossWakes())
	c["overload.offered"] = float64(rep.Total.Offered)
	c["overload.shed_ratio"] = rep.ShedRate()
	c["overload.retried"] = float64(rep.Total.Retried)
	c["overload.dropped"] = float64(rep.Total.Dropped)
	c["overload.brownout_enters"] = float64(rep.Total.BrownoutEnters)
	c["traffic.connections"] = float64(rep.Connections)
	c["traffic.requests"] = float64(rep.Requests)
	var spawned uint64
	for i, cr := range rep.Classes {
		spawned += cr.Requests * uint64(max(r.in.sc.Classes[i].Fanout, 1))
	}
	c["kernel.tasks_spawned"] = float64(spawned)
	_ = r.sys.Close() // first Close of a System this rig built cannot fail
	return o
}
