// Overload benchmark: the internet-scale traffic-plane artifact. An
// open-loop scenario fires 1M+ simulated connections — diurnal curve with
// regional offsets, a flash crowd, an antagonist tenant, and a churn
// storm — at one sharded machine running shinjuku behind the admission
// plane, once, fingerprinted. The artifact's SLO verdicts are the
// overload-control story: flash-crowd p99 stays bounded because shedding
// and brownout cap the backlog, victims
// stay fair under the antagonist, the shed rate stays under its ceiling
// with the conservation books balanced, and every brownout episode
// recovers. A pinned `t1:` chaos replay with the LeakShed bug planted
// proves the oracle catches broken shed accounting and ddmin shrinks the
// reproducer.
package bench

import (
	"fmt"
	"strings"
	"time"

	"enoki"
	"enoki/internal/chaos"
	"enoki/internal/kernel"
	"enoki/internal/overload"
	"enoki/internal/sched/shinjuku"
	"enoki/internal/workload/traffic"
)

// overloadPolicy is the scheduler class the service tier runs on (CFS
// stays at 0 for the background tiers).
const overloadPolicy = 1

// overloadReplaySpec is the pinned traffic-plane schedule the replay
// verdict runs with the LeakShed bug planted. Pinned, not drawn at bench
// time, so the artifact names a reproducer anyone can run:
//
//	enoki-chaos -replay t1:shinjuku:2a:3 -leakshed
const overloadReplaySpec = "t1:shinjuku:2a:3"

// OverloadReplay is the seeded-bug verdict: the pinned spec must fail
// conservation with LeakShed planted, shrink under ddmin, and pass clean.
type OverloadReplay struct {
	Spec         string `json:"spec"`
	Minimized    string `json:"minimized"`
	Violation    string `json:"violation"`
	EventsBefore int    `json:"events_before"`
	EventsAfter  int    `json:"events_after"`
	CleanPass    bool   `json:"clean_pass"`
	Caught       bool   `json:"caught"`
}

// OverloadBenchResult is the overload section of BENCH_cluster.json.
type OverloadBenchResult struct {
	MachineCPUs int `json:"machine_cpus"`
	Shards      int `json:"shards"`

	Connections uint64 `json:"connections"`
	Requests    uint64 `json:"requests"`
	Offered     uint64 `json:"offered"`
	Admitted    uint64 `json:"admitted"`
	Shed        uint64 `json:"shed"`
	Retried     uint64 `json:"retried"`
	Dropped     uint64 `json:"dropped"`

	VirtualMS float64 `json:"virtual_ms"`

	BaseP99US      float64 `json:"base_p99_us"`
	FlashP99US     float64 `json:"flash_p99_us"`
	Fairness       float64 `json:"fairness_jain"`
	ShedRate       float64 `json:"shed_rate"`
	BrownoutEnters uint64  `json:"brownout_enters"`
	MaxRecoveryUS  float64 `json:"max_recovery_us"`

	FingerprintSerial string `json:"fingerprint_serial"`

	Replay OverloadReplay `json:"replay"`
	Verdicts
}

// overloadScenario sizes the traffic plan to the machine — the per-CPU
// arrival rate is fixed, so the 80-CPU headline fires over a million
// connections and the 8-CPU CI smoke exercises identical dynamics at a
// tenth the volume. Baseline utilization sits near 60% (internet front
// doors are provisioned for the diurnal peak, not the flash), so overload
// is confined to the shape windows: a high-volume tiny-work edge tier
// carries the connection-count headline, the shinjuku api tier is the
// flash-crowd target and browns out, and the antagonist tenant crowds
// both victims mid-curve.
func overloadScenario(m kernel.Machine) traffic.Scenario {
	const dur = 200 * time.Millisecond
	rate := 70_000 * float64(m.NumCPUs)
	return traffic.Scenario{
		Seed:     42,
		Rate:     rate,
		Duration: dur,
		// Regions partition across shards, so each shard's front door sees
		// its own region's diurnal extreme with no cross-region smoothing;
		// 0.3 amplitude keeps a peak region within provisioning so overload
		// comes from the shape windows, not the time of day.
		DiurnalAmp: 0.3,
		Classes: []traffic.Class{
			{Name: "edge", Policy: 0, Admission: 0, Weight: 0.85,
				Work: 2 * time.Microsecond, ReqPerConn: 2, Think: 500 * time.Microsecond},
			{Name: "api", Policy: overloadPolicy, Admission: 1, Weight: 0.10,
				Work: 20 * time.Microsecond, Fanout: 2, ReqPerConn: 2, Think: 300 * time.Microsecond},
			{Name: "antag", Policy: 0, Admission: 2, Weight: 0.05,
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

// overloadAdmission is the bench's admission plan: the service tier sheds
// and browns out, the edge tier sheds without brownout, the antagonist is
// deliberately unlimited — containment comes from the victims' admission,
// the way a real multi-tenant front door can't throttle a tenant that is
// merely popular. Budgets scale with the shard's CPU count (arrival rates
// scale with the machine, so a fixed inflight cap would turn admission —
// not CPU capacity — into the bottleneck on bigger machines).
func overloadAdmission(m kernel.Machine) overload.Config {
	cpus := m.NumCPUs
	if m.NumNodes > 1 {
		cpus /= m.NumNodes
	}
	return overload.Config{Classes: []overload.ClassConfig{
		{Name: "edge", Policy: 0, MaxInflight: 64 * cpus, MaxRetries: 1,
			Backoff: 300 * time.Microsecond},
		{Name: "api", Policy: overloadPolicy, MaxInflight: 12 * cpus, MaxRetries: 2,
			Backoff: 150 * time.Microsecond, EnterDepth: 5 * cpus, ExitDepth: cpus},
		{Name: "antag", Policy: 0},
	}}
}

// overloadDrive runs the scenario once on a System sharded per NUMA node,
// shinjuku behind the admission plane: one driver and controller per shard.
func overloadDrive(m kernel.Machine, sc traffic.Scenario) traffic.Report {
	sys := enoki.NewSystem(enoki.WithMachine(m), enoki.WithShards(0),
		enoki.WithAdmission(overloadAdmission(m).Classes...))
	sys.MustAttach(overloadPolicy, enoki.GoModule(func(env enoki.Env) enoki.Scheduler {
		return shinjuku.New(env, overloadPolicy, 0)
	}))
	sys.RegisterCFS(0)
	return sys.DriveTraffic(sc, 40*time.Millisecond)
}

// overloadReplayVerdict runs the pinned LeakShed replay: fail with the bug
// planted, shrink, pass clean.
func overloadReplayVerdict() OverloadReplay {
	rep := OverloadReplay{Spec: overloadReplaySpec}
	s, err := chaos.Traffic.Parse(overloadReplaySpec)
	if err != nil {
		rep.Violation = fmt.Sprintf("pinned spec does not parse: %v", err)
		return rep
	}
	rc := chaos.TrafficRunConfig{LeakShed: true}
	res := chaos.Traffic.Run(s, rc)
	for _, v := range res.Violations {
		if strings.Contains(v, "conservation") {
			rep.Caught = true
			rep.Violation = v
			break
		}
	}
	if !rep.Caught {
		return rep
	}
	min, _ := chaos.Traffic.Minimize(s, rc)
	rep.Minimized = min.Spec()
	rep.EventsBefore = s.EnabledCount()
	rep.EventsAfter = min.EnabledCount()
	clean := chaos.Traffic.Run(min, chaos.TrafficRunConfig{})
	rep.CleanPass = !clean.Failed()
	return rep
}

// RunOverload runs the overload benchmark on the given machine template and
// assembles the verdicts.
func RunOverload(m kernel.Machine) *OverloadBenchResult {
	sc := overloadScenario(m)
	serial := overloadDrive(m, sc)

	api := serial.Classes[1]
	total := serial.Total
	r := &OverloadBenchResult{
		MachineCPUs: m.NumCPUs, Shards: m.NumNodes,
		Connections: serial.Connections, Requests: serial.Requests,
		Offered: total.Offered, Admitted: total.Admitted, Shed: total.Shed,
		Retried: total.Retried, Dropped: total.Dropped,
		VirtualMS:         float64(sc.Duration+40*time.Millisecond) / float64(time.Millisecond),
		BaseP99US:         float64(api.P99) / float64(time.Microsecond),
		FlashP99US:        float64(api.FlashP99) / float64(time.Microsecond),
		Fairness:          serial.Fairness(sc.AntagonistClass()),
		ShedRate:          serial.ShedRate(),
		BrownoutEnters:    total.BrownoutEnters,
		MaxRecoveryUS:     float64(serial.MaxRecovery) / float64(time.Microsecond),
		FingerprintSerial: fmt.Sprintf("%016x", serial.Fingerprint()),
		Replay:            overloadReplayVerdict(),
	}
	connFloor := uint64(m.NumCPUs) * 12_500
	r.check("scale", fmt.Sprintf("at least %d connections offered", connFloor),
		fmt.Sprintf("%d connections, %d requests", r.Connections, r.Requests),
		r.Connections >= connFloor)
	r.check("flash_crowd_p99", "service p99 inside the flash window under 2ms (shedding caps the backlog)",
		fmt.Sprintf("%.0fµs flash vs %.0fµs baseline, %d flash completions",
			r.FlashP99US, r.BaseP99US, api.FlashCount),
		api.FlashCount > 0 && api.FlashP99 < 2*time.Millisecond)
	r.check("antagonist_fairness", "Jain index over victim tiers at least 0.8 inside the antagonist window",
		fmt.Sprintf("%.3f", r.Fairness), r.Fairness >= 0.8)
	// The ceiling is calibrated to the scenario: a ×6 flash crowd on the
	// service tier plus an antagonist storm must shed to survive, but even
	// so at most 40% of unique requests may shed — more means admission is
	// the bottleneck (or the books are broken), not the overload windows.
	r.check("shed_ceiling", "shed rate at most 0.40 with the conservation books balanced",
		fmt.Sprintf("%.3f shed rate, %d violations", r.ShedRate, len(serial.Violations)),
		r.ShedRate <= 0.40 && len(serial.Violations) == 0)
	// A brownout episode rightly spans the overload that caused it, so the
	// recovery bound is the flash window plus 10ms of post-overload drain:
	// degradation must lift promptly once the crowd is gone, not linger.
	recoveryBound := sc.Duration/5 + 10*time.Millisecond
	r.check("brownout_recovery",
		fmt.Sprintf("every brownout episode recovers; the slowest exits within %v of entry (flash window + 10ms drain)", recoveryBound),
		fmt.Sprintf("%d enters, recovered=%v, slowest %.0fµs",
			r.BrownoutEnters, serial.Recovered, r.MaxRecoveryUS),
		r.BrownoutEnters > 0 && serial.Recovered && serial.MaxRecovery <= recoveryBound)
	r.check("replay", "pinned LeakShed replay caught by the conservation oracle, ddmin-shrunk, clean without the bug",
		fmt.Sprintf("%s: caught=%v, %d→%d events, clean_pass=%v",
			r.Replay.Spec, r.Replay.Caught, r.Replay.EventsBefore, r.Replay.EventsAfter, r.Replay.CleanPass),
		r.Replay.Caught && r.Replay.CleanPass && r.Replay.EventsAfter <= r.Replay.EventsBefore)
	return r
}
