package main

import (
	"runtime"
)

// layerDef names one per-layer metric. Layers are this repo's modules; every
// number is taken from outside them:
//
//	[c] a public counter read after the run
//	[d] a timing decorator around an interface the benchmark hands in
//	[Δ] the difference between two runs that differ in one layer
//	[µ] the layer's public functions timed in isolation
//
// A metric is 0 on a workload where its layer does none of the work or its
// rung is not run; README.md says how each is taken and which end-to-end
// metric it should move.
type layerDef struct {
	Name   string
	Unit   string
	Better string
}

var perLayer = []layerDef{
	{"sim.events_per_op", "count", "lower"},
	{"sim.wheel_ns_per_event", "ns", "lower"},
	{"sim.share_pct", "%", "lower"},

	{"kernel.ctx_per_op", "count", "lower"},
	{"kernel.wakeups_per_op", "count", "lower"},
	{"kernel.ipis_per_op", "count", "lower"},
	{"kernel.ipi_coalesce_ratio", "ratio", "higher"},
	{"kernel.tasks_spawned", "count", "lower"},
	{"kernel.self_s", "s", "lower"},
	{"kernel.spawn_exit_ns", "ns", "lower"},
	{"kernel.block_wake_ns", "ns", "lower"},

	{"cfs.calls_per_op", "count", "lower"},
	{"cfs.ns_per_call", "ns", "lower"},
	{"cfs.self_s", "s", "lower"},

	{"enokic.msgs_per_op", "count", "lower"},
	{"enokic.pnt_errs", "count", "lower"},
	{"enokic.deferred", "count", "lower"},
	{"enokic.crossing_ns_per_msg", "ns", "lower"},
	{"core.dispatch_ns_per_msg", "ns", "lower"},

	{"sched.calls_per_op", "count", "lower"},
	{"sched.ns_per_call", "ns", "lower"},
	{"sched.self_s", "s", "lower"},

	{"vpol.interp_ns_per_msg", "ns", "lower"},
	{"vpol.hooks_per_op", "count", "lower"},
	{"vpol.verify_load_us", "us", "lower"},

	{"ladder.builtin_cfs.ns_per_msg", "ns", "lower"},
	{"ladder.builtin_fifo.ns_per_msg", "ns", "lower"},
	{"ladder.verified_fifo.ns_per_msg", "ns", "lower"},
	{"ladder.module_fifo.ns_per_msg", "ns", "lower"},
	{"ladder.module_wfq.ns_per_msg", "ns", "lower"},

	{"sharded.epochs_per_op", "count", "lower"},
	{"sharded.events_per_epoch", "count", "higher"},
	{"sharded.msgs_per_op", "count", "lower"},
	{"sharded.cross_wakes", "count", "lower"},
	{"sharded.overhead_ns_per_epoch", "ns", "lower"},

	{"fleet.epochs", "count", "lower"},
	{"fleet.msgs_per_op", "count", "lower"},
	{"fleet.events_per_epoch", "count", "higher"},
	{"fleet.msgs_dropped", "count", "lower"},

	{"cluster.place_calls", "count", "lower"},
	{"cluster.placer_self_s", "s", "lower"},
	{"cluster.lost", "count", "lower"},
	{"cluster.restarts", "count", "lower"},
	{"cluster.overhead_ns_per_job", "ns", "lower"},

	{"overload.admit_done_ns", "ns", "lower"},
	{"overload.offered", "count", "higher"},
	{"overload.shed_ratio", "ratio", "lower"},
	{"overload.retried", "count", "lower"},
	{"overload.dropped", "count", "lower"},
	{"overload.brownout_enters", "count", "lower"},
	{"traffic.connections", "count", "higher"},
	{"traffic.requests", "count", "higher"},

	{"experiments.table3_s", "s", "lower"},
	{"experiments.table4_s", "s", "lower"},
	{"experiments.table6_s", "s", "lower"},
	{"experiments.upgrade_s", "s", "lower"},
	{"experiments.table3_err_pct", "%", "lower"},
	{"experiments.table4_err_pct", "%", "lower"},
	{"experiments.table6_err_pct", "%", "lower"},
	{"experiments.upgrade_err_pct", "%", "lower"},

	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.rep_spread_pct", "%", "lower"},
	{"bench.gc_cycles", "count", "lower"},
	{"bench.gc_pause_ms", "ms", "lower"},
	{"bench.gomaxprocs", "count", "higher"},
	{"bench.host_speed", "ratio", "higher"},

	// The ledger's virtual-time end-to-end metrics: deterministic for a seed
	// and not defined on every workload, so BENCHMARK.json carries them here,
	// without a bound; compare gates them from the result files.
	{"sim_p50_us", "virt_us", "lower"},
	{"sim_p99_us", "virt_us", "lower"},
	{"sim_ctx_per_op", "count", "lower"},
	{"paper_err_pct", "%", "lower"},
}

// tracedRun is what the traced half of a run gathered, the input of
// layerMetrics.
type tracedRun struct {
	untraced []repStats
	traced   []repStats
	tr       *tracer
	ladder   []ladderRow
	micro    map[string]float64
	// rungWallS is the median wall time of the workload's differencing rung
	// (standalone nodes for tick_saturated, machine-only for fleet_jobs), 0
	// when the workload has none.
	rungWallS float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives every per-layer metric and the layer table of one
// traced workload run, and the mean traced wall time the table's rows sum to.
// Counts come from the first traced rep (they repeat exactly), decorator times
// are means per traced rep.
func layerMetrics(t *tracedRun, e2e map[string]stat) (values map[string]float64, table []layerRow, tracedWallS float64) {
	m := make(map[string]float64, len(perLayer))
	for _, def := range perLayer {
		m[def.Name] = 0 // a layer that does none of the work here reads 0
	}
	out := t.traced[0].out
	c := out.Counters
	ops := float64(out.Ops)
	n := float64(len(t.traced))
	wall := e2e["wall_s"].Median
	perRep := func(ns float64) float64 { return ns / 1e9 / n }

	events := float64(out.Events)
	m["sim.events_per_op"] = events / ops
	m["sim.wheel_ns_per_event"] = t.micro["sim.wheel_ns_per_event"]
	m["sim.share_pct"] = 100 * ratio(m["sim.wheel_ns_per_event"]*events/1e9, wall)

	m["kernel.ctx_per_op"] = float64(out.Ctx) / ops
	m["kernel.wakeups_per_op"] = c["kernel.wakeups"] / ops
	m["kernel.ipis_per_op"] = c["kernel.ipis"] / ops
	m["kernel.ipi_coalesce_ratio"] = ratio(c["kernel.ipis_coalesced"], c["kernel.ipis"]+c["kernel.ipis_coalesced"])
	m["kernel.tasks_spawned"] = c["kernel.tasks_spawned"]
	// The run span's own time, less the part of the tracer's cost that lands
	// outside the hook spans.
	hooks := float64(t.tr.hooks)
	m["kernel.self_s"] = perRep(t.tr.layer("run").SelfNs - hooks*(t.tr.pairNs-t.tr.inNs))
	m["kernel.spawn_exit_ns"] = t.micro["kernel.spawn_exit_ns"]

	for _, r := range t.ladder {
		m["ladder."+r.Rung+".ns_per_msg"] = r.NsPerMsg
	}
	floor := ladderRung(t.ladder, rungBuiltinFIFO.Name)
	module := ladderRung(t.ladder, rungModuleFIFO.Name)
	m["kernel.block_wake_ns"] = floor.NsPerMsg
	m["vpol.interp_ns_per_msg"] = ladderRung(t.ladder, rungVerifiedFIFO.Name).NsPerMsg - floor.NsPerMsg
	// What the module rung costs over the builtin floor is crossing plus
	// policy; take the policy's own (decorator-timed) share out, and divide
	// by crossings per message.
	m["enokic.crossing_ns_per_msg"] = ratio(module.NsPerMsg-floor.NsPerMsg-module.SchedSelfNs, module.Crossings)

	for _, layer := range []string{"cfs", "sched"} {
		f := t.tr.layer(layer)
		m[layer+".calls_per_op"] = float64(f.Count) / n / ops
		m[layer+".ns_per_call"] = ratio(t.tr.netSelfNs(f), float64(f.Count))
		m[layer+".self_s"] = perRep(t.tr.netSelfNs(f))
	}

	m["enokic.msgs_per_op"] = c["enokic.msgs"] / ops
	m["enokic.pnt_errs"] = c["enokic.pnt_errs"]
	m["enokic.deferred"] = c["enokic.deferred"]
	m["core.dispatch_ns_per_msg"] = t.micro["core.dispatch_ns_per_msg"]
	m["vpol.hooks_per_op"] = c["vpol.hooks"] / ops
	m["vpol.verify_load_us"] = t.micro["vpol.verify_load_us"]

	m["sharded.epochs_per_op"] = c["sharded.epochs"] / ops
	m["sharded.events_per_epoch"] = ratio(events, c["sharded.epochs"])
	m["sharded.msgs_per_op"] = c["sharded.msgs"] / ops
	m["sharded.cross_wakes"] = c["sharded.cross_wakes"]
	m["fleet.epochs"] = c["fleet.epochs"]
	m["fleet.msgs_per_op"] = c["fleet.msgs"] / ops
	m["fleet.events_per_epoch"] = ratio(events, c["fleet.epochs"])
	m["fleet.msgs_dropped"] = c["fleet.msgs_dropped"]
	if t.rungWallS > 0 {
		over := (wall - t.rungWallS) * 1e9
		if c["fleet.epochs"] > 0 {
			m["cluster.overhead_ns_per_job"] = over / ops
		} else {
			m["sharded.overhead_ns_per_epoch"] = ratio(over, c["sharded.epochs"])
		}
	}

	place := t.tr.layer("cluster.place")
	m["cluster.place_calls"] = float64(place.Count) / n
	m["cluster.placer_self_s"] = perRep(t.tr.netSelfNs(place))
	m["cluster.lost"] = c["cluster.lost"]
	m["cluster.restarts"] = c["cluster.restarts"]

	m["overload.admit_done_ns"] = t.micro["overload.admit_done_ns"]
	for _, name := range []string{"overload.offered", "overload.shed_ratio", "overload.retried", "overload.dropped",
		"overload.brownout_enters", "traffic.connections", "traffic.requests"} {
		m[name] = c[name]
	}

	for _, exp := range sizes["full"].PaperExperiments {
		m["experiments."+exp+"_s"] = perRep(t.tr.layer("experiments." + exp).TotalNs)
		m["experiments."+exp+"_err_pct"] = c["experiments."+exp+"_err_pct"]
	}

	var untracedWall, tracedWall, gcCycles, gcPause, speed []float64
	for _, r := range t.untraced {
		speed = append(speed, r.HostSpeed)
		untracedWall = append(untracedWall, r.WallS)
		gcCycles = append(gcCycles, float64(r.GCCycles))
		gcPause = append(gcPause, float64(r.GCPauseNs)/1e6)
	}
	for _, r := range t.traced {
		tracedWall = append(tracedWall, r.WallS)
	}
	m["bench.trace_overhead_pct"] = 100 * (ratio(median(tracedWall), median(untracedWall)) - 1)
	m["bench.rep_spread_pct"] = 100 * spread(untracedWall)
	m["bench.gc_cycles"] = median(gcCycles)
	m["bench.gc_pause_ms"] = median(gcPause)
	m["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["bench.host_speed"] = median(speed)

	for _, name := range []string{"sim_p50_us", "sim_p99_us", "sim_ctx_per_op", "paper_err_pct"} {
		m[name] = e2e[name].Median
	}

	// The layer table. Exact rows partition the traced run region, as means
	// per traced rep: each decorated layer's self time, the run span's own
	// remainder, the tracer's calibrated cost, and what the spans do not cover.
	twall := 0.0
	for _, w := range tracedWall {
		twall += w / n
	}
	var rows []layerRow
	covered := 0.0
	exact := func(name string, s float64) {
		if s != 0 {
			rows = append(rows, layerRow{Layer: name, Seconds: s, Exact: true})
			covered += s
		}
	}
	exact("sched.self_s", m["sched.self_s"])
	exact("cfs.self_s", m["cfs.self_s"])
	exact("cluster.placer_self_s", m["cluster.placer_self_s"])
	for _, exp := range sizes["full"].PaperExperiments {
		exact("experiments."+exp+"_s", m["experiments."+exp+"_s"])
	}
	exact("kernel.self_s", m["kernel.self_s"])
	exact("tracer (calibrated cost x spans)", perRep(hooks*t.tr.pairNs))
	rows = append(rows, layerRow{Layer: "unattributed", Seconds: twall - covered, Exact: true})
	estimate := func(name string, s float64) {
		if s != 0 {
			rows = append(rows, layerRow{Layer: name, Seconds: s})
		}
	}
	estimate("sim wheel (ns/event x events)", m["sim.wheel_ns_per_event"]*events/1e9)
	estimate("enokic crossing (ns/msg x crossings)", m["enokic.crossing_ns_per_msg"]*c["enokic.msgs"]/1e9)
	if c["vpol.hooks"] > 0 {
		estimate("vpol interpreter (ns/msg x msgs)", m["vpol.interp_ns_per_msg"]*ops/1e9)
	}
	estimate("kernel spawn/exit (ns x tasks)", m["kernel.spawn_exit_ns"]*c["kernel.tasks_spawned"]/1e9)
	estimate("sharded executor (ns/epoch x epochs)", m["sharded.overhead_ns_per_epoch"]*c["sharded.epochs"]/1e9)
	estimate("fleet + cluster (ns/job x jobs)", m["cluster.overhead_ns_per_job"]*ops/1e9)
	return m, rows, twall
}
