// Package chaos is the deterministic chaos engine: it composes the repo's
// fault planes — module panics at any trait-call site, hint-ring overflow
// storms, IPI drop/delay/duplication, timer skew, live-upgrade faults and
// kills — into seeded campaigns over every scheduler class, judges each run
// with an always-on invariant oracle, and shrinks a failing run's fault
// schedule to a minimal reproducer replayable from a one-line spec string.
//
// The design follows the FoundationDB/Jepsen school of simulation testing,
// adapted to the repo's discrete-event kernel: because the simulator is
// single-threaded over virtual time and every fault trigger is a seeded
// draw, a call count, or a virtual timestamp, a failing seed is not a flaky
// artifact but a permanent, bit-for-bit reproducible program input. The
// campaign explores; the spec string (`<family>:<class>:<seed>:<mask>`)
// replays; the minimizer (ddmin over the event mask) keeps only the fault
// events the failure actually needs.
//
// Four spec families share that one engine (engine.go): `v1:` sabotages a
// single machine from the inside, `f1:` kills machines under a recorded
// fleet, `r1:` does so while a canary rollout is in flight, `t1:` mixes
// adversarial traffic with the fault planes. A family contributes only its
// prefix, event generator, runner-with-oracle and class-admission rule; the
// schedule, parser, minimizer, campaign loop and replay one-liner are
// written once.
package chaos

import (
	"fmt"
	"time"

	"enoki/internal/core"
	"enoki/internal/ktime"
)

// Plane identifies one fault family a chaos event belongs to. Planes are
// split by *who* they sabotage: module planes corrupt the scheduler module
// behind the trait boundary (the fault layer may legitimately kill for
// these), upgrade planes break the live-upgrade transaction (which must
// roll back, never kill), and kernel planes degrade the machine itself
// (IPIs, timers — a correct stack must survive them outright).
type Plane uint8

// Fault planes.
const (
	// PlanePanic arms a panic inside one trait call after a fixed number
	// of calls of that kind (Site, Count).
	PlanePanic Plane = iota
	// PlaneStall makes every pick return nil during [At, At+Dur) — Dur 0
	// is a permanent stall, the starvation the watchdog must catch.
	PlaneStall
	// PlaneForge corrupts Count returned Schedulables starting at pick
	// number Mag, exercising proof-of-runnability validation.
	PlaneForge
	// PlaneHintStorm pushes Count hints at time At into a deliberately
	// tiny hint ring, forcing overflow drops the accounting must surface.
	PlaneHintStorm
	// PlaneIPIDrop delays every kick in [At, At+Dur) by the recovery bound
	// Mag — a lost resched IPI noticed at the next tick.
	PlaneIPIDrop
	// PlaneIPIDelay adds a seeded random delay in [0, Mag) to every kick
	// in the window.
	PlaneIPIDelay
	// PlaneIPIDup delivers a duplicate kick Mag after every kick in the
	// window — the spurious IPI a correct scheduler treats as a no-op.
	PlaneIPIDup
	// PlaneTimerSkew lengthens every reschedule-timer arm in the window by
	// a seeded random skew in [0, Mag) — a coarse, drifting clock.
	PlaneTimerSkew
	// PlaneUpgrade performs a clean live upgrade to a fresh module of the
	// same class at time At; it must complete without rollback or kill.
	PlaneUpgrade
	// PlaneUpgradeKill performs a live upgrade whose new version panics in
	// reregister_init at time At: the transactional upgrade path must roll
	// back to the old module — killing the class here is the bug the
	// rollback layer exists to prevent.
	PlaneUpgradeKill
	// PlaneMachineKill fail-stops a whole simulated machine in a fleet
	// campaign (see fleet.go): the cluster control plane must detect the
	// death and restart every placement the machine held elsewhere. Fleet
	// schedules (`f1:` specs) use this plane exclusively; it never appears
	// in a single-machine schedule.
	PlaneMachineKill
	// PlaneRolloutKill fail-stops a machine while a fleet rollout is in
	// flight (see rollout.go): the control plane must resolve the
	// machine's rollout slot through the death path instead of leaving
	// the wave barrier waiting forever. Rollout schedules (`r1:` specs)
	// use the three rollout planes exclusively.
	PlaneRolloutKill
	// PlaneRolloutFaulty makes the rollout's new module generation panic
	// in reregister_init on every machine id >= Threshold: the canary (or
	// a later wave) must fail its verdict, halting the rollout and
	// rolling the whole fleet back.
	PlaneRolloutFaulty
	// PlaneRolloutDelayDetect stretches the cluster's failure-detection
	// delay, widening the window in which a dead machine's rollout slot
	// is unresolved.
	PlaneRolloutDelayDetect
	// PlaneTrafficFlash multiplies the service class's arrival rate by
	// Count inside [At, At+Dur) — a flash crowd at the front door. Traffic
	// schedules (`t1:` specs, see traffic.go) mix the three traffic planes
	// with module and kernel fault planes: overload control must shed,
	// brown out, and recover while the fault planes sabotage the module.
	PlaneTrafficFlash
	// PlaneTrafficAntag multiplies the background class's rate by Count in
	// the window — the noisy neighbor crowding the service class.
	PlaneTrafficAntag
	// PlaneTrafficChurn is a connection-churn storm: every connection
	// opened in the window issues a single request and closes.
	PlaneTrafficChurn

	numPlanes
)

var planeNames = [numPlanes]string{
	PlanePanic:              "panic",
	PlaneStall:              "stall",
	PlaneForge:              "forge",
	PlaneHintStorm:          "hint-storm",
	PlaneIPIDrop:            "ipi-drop",
	PlaneIPIDelay:           "ipi-delay",
	PlaneIPIDup:             "ipi-dup",
	PlaneTimerSkew:          "timer-skew",
	PlaneUpgrade:            "upgrade",
	PlaneUpgradeKill:        "upgrade-kill",
	PlaneMachineKill:        "machine-kill",
	PlaneRolloutKill:        "rollout-kill",
	PlaneRolloutFaulty:      "rollout-faulty",
	PlaneRolloutDelayDetect: "rollout-delay-detect",
	PlaneTrafficFlash:       "traffic-flash",
	PlaneTrafficAntag:       "traffic-antagonist",
	PlaneTrafficChurn:       "traffic-churn",
}

func (p Plane) String() string {
	if p < numPlanes {
		return planeNames[p]
	}
	return "invalid"
}

// Event is one fault in a schedule. Field meaning is plane-specific (see the
// Plane constants): At/Dur bound a virtual-time window (ns), Site names a
// trait call for PlanePanic, Count is a call index or volume, and Mag is a
// magnitude in ns (delays, skews) or a pick index (forge start).
type Event struct {
	Plane Plane
	At    int64
	Dur   int64
	Site  core.Kind
	Count int
	Mag   int64
}

func (e Event) String() string {
	switch e.Plane {
	case PlanePanic:
		return fmt.Sprintf("panic[%v@call%d]", e.Site, e.Count)
	case PlaneStall:
		if e.Dur == 0 {
			return fmt.Sprintf("stall[%v..∞]", time.Duration(e.At))
		}
		return fmt.Sprintf("stall[%v+%v]", time.Duration(e.At), time.Duration(e.Dur))
	case PlaneForge:
		return fmt.Sprintf("forge[%d@pick%d]", e.Count, e.Mag)
	case PlaneHintStorm:
		return fmt.Sprintf("hint-storm[%d@%v]", e.Count, time.Duration(e.At))
	case PlaneUpgrade, PlaneUpgradeKill:
		return fmt.Sprintf("%v[@%v]", e.Plane, time.Duration(e.At))
	case PlaneTrafficFlash, PlaneTrafficAntag, PlaneTrafficChurn:
		return fmt.Sprintf("%v[%v+%v x%d]", e.Plane,
			time.Duration(e.At), time.Duration(e.Dur), e.Count)
	default:
		return fmt.Sprintf("%v[%v+%v mag=%v]", e.Plane,
			time.Duration(e.At), time.Duration(e.Dur), time.Duration(e.Mag))
	}
}

// panicSites are the trait calls PlanePanic may land in: every dispatch
// kind a normal workload exercises, so a campaign eventually panics each
// callback site the adapter crosses.
var panicSites = []core.Kind{
	core.MsgPickNextTask,
	core.MsgTaskWakeup,
	core.MsgTaskNew,
	core.MsgTaskPreempt,
	core.MsgTaskYield,
	core.MsgTaskTick,
	core.MsgTaskBlocked,
	core.MsgTaskDead,
	core.MsgSelectTaskRQ,
	core.MsgBalance,
	core.MsgTaskPrioChanged,
	core.MsgTaskAffinityChanged,
}

// generate derives the v1: fault plan from a seed for one scheduler class.
// Classes without a module (the CFS baseline) draw only kernel planes;
// classes without hint support skip storms.
func generate(seed uint64, class string) []Event {
	rng := ktime.NewRand(seed)
	c, _ := caseByName(class)
	pool := []Plane{PlaneIPIDrop, PlaneIPIDelay, PlaneIPIDup, PlaneTimerSkew}
	if c.NewModule != nil {
		pool = append(pool, PlanePanic, PlaneStall, PlaneForge, PlaneUpgrade, PlaneUpgradeKill)
		if c.SupportsHints {
			pool = append(pool, PlaneHintStorm)
		}
	}
	n := 2 + int(rng.Intn(4))
	evs := make([]Event, 0, n)
	for j := 0; j < n; j++ {
		evs = append(evs, eventFor(pool[rng.Intn(len(pool))], rng))
	}
	return evs
}

// eventFor draws one event's parameters. All times are virtual ns well
// inside the run budget, so every armed fault gets a chance to fire.
func eventFor(p Plane, rng *ktime.Rand) Event {
	ms := func(lo, hi int) int64 {
		return (int64(lo) + int64(rng.Intn(hi-lo+1))) * int64(time.Millisecond)
	}
	us := func(lo, hi int) int64 {
		return (int64(lo) + int64(rng.Intn(hi-lo+1))) * int64(time.Microsecond)
	}
	ev := Event{Plane: p}
	switch p {
	case PlanePanic:
		ev.Site = panicSites[rng.Intn(len(panicSites))]
		ev.Count = rng.Intn(400)
	case PlaneStall:
		ev.At = ms(1, 30)
		if rng.Intn(2) == 1 {
			ev.Dur = ms(1, 8) // transient: module must survive it
		}
	case PlaneForge:
		ev.Count = 1 + rng.Intn(24)
		ev.Mag = int64(1 + rng.Intn(200)) // starting pick number
	case PlaneHintStorm:
		ev.At = ms(1, 30)
		ev.Count = 8 + rng.Intn(57) // vs. a capacity-8 ring: guaranteed drops
	case PlaneIPIDrop:
		ev.At, ev.Dur = ms(1, 30), ms(1, 10)
		ev.Mag = us(250, 1000) // recovery bound: "noticed at next tick"
	case PlaneIPIDelay:
		ev.At, ev.Dur = ms(1, 30), ms(1, 10)
		ev.Mag = us(1, 100)
	case PlaneIPIDup:
		ev.At, ev.Dur = ms(1, 30), ms(1, 10)
		ev.Mag = us(0, 10)
	case PlaneTimerSkew:
		ev.At, ev.Dur = ms(1, 30), ms(1, 10)
		ev.Mag = us(10, 500)
	case PlaneUpgrade, PlaneUpgradeKill:
		ev.At = ms(1, 40)
	}
	return ev
}
