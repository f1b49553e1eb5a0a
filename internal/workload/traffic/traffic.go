// Package traffic is the internet-scale open-loop scenario engine:
// deterministic, seed-driven traffic shapes — diurnal load curves with
// regional offsets, flash crowds, antagonist/noisy-neighbor multi-
// tenancy, connection churn, and an nginx-style request-fanout model —
// generating millions of simulated connections against a simulated
// kernel (single or sharded) or a simulated fleet.
//
// The engine is open-loop: arrival times come from the scenario clock,
// never from service completions, so overload compounds the way it does
// on a real front door instead of self-throttling. Every arrival passes
// through an overload.Controller before any task is spawned; shed
// requests cost no kernel events (which is what keeps million-connection
// flash peaks simulable) and retry with bounded backoff, all under the
// controller's conservation accounting.
//
// Determinism: each Driver owns a seeded ktime.Rand and touches only its
// own kernel shard, so a sharded drive is deterministic, and per-shard
// reports merge into the same totals whatever the shard order (the bench
// fingerprints this).
package traffic

import (
	"math"
	"time"
)

// ShapeKind selects one adversarial traffic shape.
type ShapeKind uint8

const (
	// Flash is a flash crowd: the class's arrival rate multiplies by
	// Mult inside the window.
	Flash ShapeKind = iota
	// Antagonist is noisy-neighbor multi-tenancy: the antagonist class's
	// rate multiplies by Mult inside the window, crowding the victims.
	// Fairness is judged over the other classes' completions.
	Antagonist
	// Churn is a connection-churn storm: arrivals multiply by Mult and
	// every connection opened inside the window issues a single request
	// (open, one request, close — the pathological keep-alive-miss
	// pattern).
	Churn
)

func (k ShapeKind) String() string {
	switch k {
	case Flash:
		return "flash"
	case Antagonist:
		return "antagonist"
	case Churn:
		return "churn"
	}
	return "shape?"
}

// Shape is one traffic distortion window.
type Shape struct {
	Kind ShapeKind
	// Class is the index of the class the shape applies to; negative
	// means every class.
	Class int
	// At and Dur bound the window [At, At+Dur) in scenario time.
	At, Dur time.Duration
	// Mult is the arrival-rate multiplier inside the window.
	Mult float64
}

// Class is one request class of a scenario.
type Class struct {
	// Name labels the class in reports and task names.
	Name string
	// Policy is the scheduler class id requests spawn into.
	Policy int
	// Admission is the class index in the overload controller's config
	// this class offers through.
	Admission int
	// Weight is the class's share of baseline connection arrivals.
	Weight float64
	// Work is the mean per-request service demand (exp-distributed).
	Work time.Duration
	// Fanout is the nginx-style backend fan-out: a request with Fanout
	// > 1 spawns that many backend subrequests (splitting Work between
	// them) and completes when the last one exits.
	Fanout int
	// ReqPerConn is how many requests each connection issues (default
	// 1); Think is the gap between them.
	ReqPerConn int
	Think      time.Duration
}

// Region is one arrival region: a share of global traffic with a diurnal
// phase offset. In sharded rigs regions partition across shards.
type Region struct {
	Name string
	// Share is the region's fraction of global arrivals.
	Share float64
	// Offset shifts the region's diurnal phase (its local time of day).
	Offset time.Duration
}

// Scenario is one deterministic open-loop traffic plan.
type Scenario struct {
	// Seed drives every random draw (arrival jitter, service times).
	Seed uint64
	// Rate is the baseline global connection-arrival rate per second,
	// before diurnal and shape multipliers.
	Rate float64
	// Duration is how long arrivals are generated; the rig then drains.
	Duration time.Duration
	// Tick is the arrival batching quantum (default 100µs).
	Tick time.Duration
	// DiurnalPeriod is one simulated "day" (default: Duration, i.e. the
	// run sweeps one full curve); DiurnalAmp is the curve's amplitude in
	// [0,1) around the baseline (default 0.4, negative disables).
	DiurnalPeriod time.Duration
	DiurnalAmp    float64

	Classes []Class
	Regions []Region
	Shapes  []Shape
}

// WithDefaults returns the scenario with zero fields defaulted.
func (sc Scenario) WithDefaults() Scenario {
	if sc.Tick <= 0 {
		sc.Tick = 100 * time.Microsecond
	}
	if sc.DiurnalPeriod <= 0 {
		sc.DiurnalPeriod = sc.Duration
	}
	if sc.DiurnalAmp == 0 {
		sc.DiurnalAmp = 0.4
	}
	if len(sc.Regions) == 0 {
		sc.Regions = []Region{{Name: "global", Share: 1}}
	}
	cs := make([]Class, len(sc.Classes))
	copy(cs, sc.Classes)
	for i := range cs {
		if cs[i].ReqPerConn <= 0 {
			cs[i].ReqPerConn = 1
		}
		if cs[i].Fanout <= 0 {
			cs[i].Fanout = 1
		}
	}
	sc.Classes = cs
	return sc
}

// Factor is the arrival-rate multiplier for class ci at scenario time t
// in a region with the given diurnal offset: the diurnal curve times
// every shape window covering (ci, t).
func (sc *Scenario) Factor(ci int, t, offset time.Duration) float64 {
	f := 1.0
	if sc.DiurnalAmp > 0 && sc.DiurnalPeriod > 0 {
		phase := 2 * math.Pi * float64(t+offset) / float64(sc.DiurnalPeriod)
		f *= 1 + sc.DiurnalAmp*math.Sin(phase)
	}
	for i := range sc.Shapes {
		sh := &sc.Shapes[i]
		if (sh.Class == ci || sh.Class < 0) && t >= sh.At && t < sh.At+sh.Dur {
			f *= sh.Mult
		}
	}
	if f < 0 {
		f = 0
	}
	return f
}

// churnAt reports whether a churn window covers class ci at time t.
func (sc *Scenario) churnAt(ci int, t time.Duration) bool {
	for i := range sc.Shapes {
		sh := &sc.Shapes[i]
		if sh.Kind == Churn && (sh.Class == ci || sh.Class < 0) && t >= sh.At && t < sh.At+sh.Dur {
			return true
		}
	}
	return false
}

// inShape reports whether any window of the given kind covers class ci
// at time t (used to attribute admissions to flash windows).
func (sc *Scenario) inShape(kind ShapeKind, ci int, t time.Duration) bool {
	for i := range sc.Shapes {
		sh := &sc.Shapes[i]
		if sh.Kind == kind && (sh.Class == ci || sh.Class < 0) && t >= sh.At && t < sh.At+sh.Dur {
			return true
		}
	}
	return false
}

// antagonistActive reports whether any antagonist window covers time t
// (fairness is judged over arrivals inside these windows).
func (sc *Scenario) antagonistActive(t time.Duration) bool {
	for i := range sc.Shapes {
		sh := &sc.Shapes[i]
		if sh.Kind == Antagonist && t >= sh.At && t < sh.At+sh.Dur {
			return true
		}
	}
	return false
}

// AntagonistClass returns the class index targeted by the first
// antagonist shape, or -1 when the scenario has none. The fairness SLO
// excludes it from the victim set.
func (sc *Scenario) AntagonistClass() int {
	for i := range sc.Shapes {
		if sc.Shapes[i].Kind == Antagonist {
			return sc.Shapes[i].Class
		}
	}
	return -1
}

// OverloadEnd returns the end of the last overload window (flash or
// antagonist) — the epoch brownout-recovery time is measured from.
func (sc *Scenario) OverloadEnd() time.Duration {
	var end time.Duration
	for i := range sc.Shapes {
		sh := &sc.Shapes[i]
		if sh.Kind == Flash || sh.Kind == Antagonist {
			if e := sh.At + sh.Dur; e > end {
				end = e
			}
		}
	}
	return end
}
