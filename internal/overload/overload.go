// Package overload is the admission-control plane: per-class load
// shedding with bounded retry, and brownout graceful degradation driven
// by hysteresis on sampled queue depth.
//
// The controller sits at ingress — a traffic rig or the cluster's job
// front door calls Admit before any task is spawned — never in the
// kernel's pick path. Admit is the hot path and performs zero heap
// allocations: it reads and bumps plain counter fields on a
// pre-allocated per-class slice (ratchet-tested).
//
// Accounting is conservation-checked. Every call to Admit counts one
// Offered attempt and resolves it as exactly one of Admitted or Shed;
// every Shed resolves as exactly one of Retried (the caller re-offers
// after Backoff) or Dropped. So for each class:
//
//	Offered == Admitted + Shed
//	Shed    == Retried + Dropped
//
// must hold at every instant, and the chaos oracle enforces it. Unique
// requests are Offered - Retried. Config.LeakShed re-introduces the
// seeded accounting bug — a shed attempt that exhausts its retry budget
// is silently forgotten instead of counted Dropped — which the oracle
// must catch (and ddmin must shrink) in the t1: traffic campaigns.
//
// Brownout is a two-state hysteresis machine per class: Sample feeds a
// queue-depth observation (from the kernel metrics layer); depth at or
// above EnterDepth flips the class degraded, and it stays degraded until
// depth falls to ExitDepth or below. Transitions are timestamped so the
// bench can measure brownout-recovery time. What "degraded" means is the
// scheduler module's business (see core.BrownoutMode): shinjuku drops
// its tight preemption slice, locality drops LLC spillover.
package overload

import (
	"fmt"
	"time"
)

// Verdict is Admit's resolution of one offered attempt.
type Verdict uint8

const (
	// Admitted: run it. The caller owes one Done when the work finishes.
	Admitted Verdict = iota
	// Retry: shed, but the attempt budget allows re-offering after
	// Backoff(class, attempt).
	Retry
	// Dropped: shed with the retry budget exhausted. Terminal.
	Dropped
)

func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case Retry:
		return "retry"
	case Dropped:
		return "dropped"
	}
	return fmt.Sprintf("Verdict(%d)", uint8(v))
}

// ClassConfig parameterizes one admission class.
type ClassConfig struct {
	// Name labels the class in reports and violations.
	Name string
	// Policy is the scheduler class id this admission class maps to —
	// brownout samples that class's runnable depth and degrades its
	// module.
	Policy int
	// MaxInflight is the admission ceiling: an offer arriving with
	// MaxInflight admitted-but-unfinished requests already in flight is
	// shed. Zero means unlimited (the class never sheds).
	MaxInflight int
	// MaxRetries bounds re-offers of shed work; attempt numbers run
	// 0..MaxRetries, so a request is offered at most MaxRetries+1 times.
	MaxRetries int
	// Backoff is the base retry delay; it doubles per attempt (capped at
	// 64× base).
	Backoff time.Duration
	// EnterDepth and ExitDepth are the brownout hysteresis thresholds on
	// sampled queue depth: degrade at >= EnterDepth, recover at
	// <= ExitDepth. EnterDepth 0 disables brownout for the class.
	EnterDepth int
	ExitDepth  int
}

// Config assembles a Controller.
type Config struct {
	Classes []ClassConfig
	// LeakShed enables the seeded accounting bug: drops are not counted,
	// breaking Shed == Retried + Dropped. For chaos campaigns only.
	LeakShed bool
}

// Counters is one class's (or a merged total's) accounting snapshot.
type Counters struct {
	Offered        uint64 `json:"offered"`
	Admitted       uint64 `json:"admitted"`
	Shed           uint64 `json:"shed"`
	Retried        uint64 `json:"retried"`
	Dropped        uint64 `json:"dropped"`
	BrownoutEnters uint64 `json:"brownout_enters"`
	BrownoutExits  uint64 `json:"brownout_exits"`
}

// Add returns the element-wise sum (for merging per-shard controllers).
func (c Counters) Add(o Counters) Counters {
	c.Offered += o.Offered
	c.Admitted += o.Admitted
	c.Shed += o.Shed
	c.Retried += o.Retried
	c.Dropped += o.Dropped
	c.BrownoutEnters += o.BrownoutEnters
	c.BrownoutExits += o.BrownoutExits
	return c
}

// Transition records one brownout state change, timestamped in the
// sampler's clock (virtual nanoseconds in the simulator).
type Transition struct {
	Class int   `json:"class"`
	At    int64 `json:"at"`
	Enter bool  `json:"enter"`
}

type classState struct {
	cfg      ClassConfig
	n        Counters
	inflight int
	degraded bool
}

// Controller is one admission/brownout control plane. It is not
// goroutine-safe: in sharded rigs each shard owns its own Controller
// (merged with Counters.Add afterwards), which is also what keeps a
// drive byte-identical whatever order its shards run in.
type Controller struct {
	classes     []classState
	leak        bool
	transitions []Transition
}

// New builds a Controller; class indexes follow cfg.Classes order.
func New(cfg Config) *Controller {
	c := &Controller{classes: make([]classState, len(cfg.Classes)), leak: cfg.LeakShed}
	for i, cc := range cfg.Classes {
		if cc.ExitDepth > cc.EnterDepth && cc.EnterDepth > 0 {
			panic(fmt.Sprintf("overload: class %s ExitDepth %d above EnterDepth %d breaks hysteresis",
				cc.Name, cc.ExitDepth, cc.EnterDepth))
		}
		c.classes[i].cfg = cc
	}
	return c
}

// NumClasses returns the class count.
func (c *Controller) NumClasses() int { return len(c.classes) }

// Class returns class i's config.
func (c *Controller) Class(i int) ClassConfig { return c.classes[i].cfg }

// Admit resolves one offered attempt for class i. attempt is 0 for a
// fresh request and increments per retry. Zero-alloc hot path.
func (c *Controller) Admit(i, attempt int) Verdict {
	cs := &c.classes[i]
	cs.n.Offered++
	if cs.cfg.MaxInflight == 0 || cs.inflight < cs.cfg.MaxInflight {
		cs.n.Admitted++
		cs.inflight++
		return Admitted
	}
	cs.n.Shed++
	if attempt < cs.cfg.MaxRetries {
		cs.n.Retried++
		return Retry
	}
	if !c.leak {
		// The seeded-bug configuration omits this count: the dropped
		// attempt vanishes from the books and the conservation oracle
		// flags Shed != Retried + Dropped.
		cs.n.Dropped++
	}
	return Dropped
}

// Done releases one admitted request's inflight slot. Exactly one Done
// per Admitted verdict.
func (c *Controller) Done(i int) {
	c.classes[i].inflight--
}

// Inflight returns class i's admitted-but-unfinished count.
func (c *Controller) Inflight(i int) int { return c.classes[i].inflight }

// Backoff returns the retry delay before re-offering at attempt+1:
// base << attempt, capped at 64× base. Pure and zero-alloc.
func (c *Controller) Backoff(i, attempt int) time.Duration {
	d := c.classes[i].cfg.Backoff
	for ; attempt > 0 && d < c.classes[i].cfg.Backoff<<6; attempt-- {
		d <<= 1
	}
	return d
}

// Sample feeds one queue-depth observation for class i at time now and
// runs the hysteresis machine. It reports whether the brownout state
// changed; the caller propagates a change to the module's degraded mode.
func (c *Controller) Sample(i, depth int, now int64) (changed bool) {
	cs := &c.classes[i]
	if cs.cfg.EnterDepth <= 0 {
		return false
	}
	if !cs.degraded && depth >= cs.cfg.EnterDepth {
		cs.degraded = true
		cs.n.BrownoutEnters++
		c.transitions = append(c.transitions, Transition{Class: i, At: now, Enter: true})
		return true
	}
	if cs.degraded && depth <= cs.cfg.ExitDepth {
		cs.degraded = false
		cs.n.BrownoutExits++
		c.transitions = append(c.transitions, Transition{Class: i, At: now, Enter: false})
		return true
	}
	return false
}

// Degraded reports class i's current brownout state.
func (c *Controller) Degraded(i int) bool { return c.classes[i].degraded }

// Counters returns class i's accounting snapshot.
func (c *Controller) Counters(i int) Counters { return c.classes[i].n }

// Total returns the accounting summed over every class.
func (c *Controller) Total() Counters {
	var t Counters
	for i := range c.classes {
		t = t.Add(c.classes[i].n)
	}
	return t
}

// Transitions returns every brownout transition in sample order.
func (c *Controller) Transitions() []Transition { return c.transitions }

// CheckConservation returns one violation string per broken accounting
// identity — empty means the books balance. finalInflight additionally
// requires every admitted request to have completed (Done), which a
// drained rig must satisfy even across module kills and rehoming.
func (c *Controller) CheckConservation(finalInflight bool) []string {
	var v []string
	for i := range c.classes {
		cs := &c.classes[i]
		if cs.n.Offered != cs.n.Admitted+cs.n.Shed {
			v = append(v, fmt.Sprintf("conservation: class %s offered %d != admitted %d + shed %d",
				cs.cfg.Name, cs.n.Offered, cs.n.Admitted, cs.n.Shed))
		}
		if cs.n.Shed != cs.n.Retried+cs.n.Dropped {
			v = append(v, fmt.Sprintf("conservation: class %s shed %d != retried %d + dropped %d",
				cs.cfg.Name, cs.n.Shed, cs.n.Retried, cs.n.Dropped))
		}
		if finalInflight && cs.inflight != 0 {
			v = append(v, fmt.Sprintf("conservation: class %s still has %d admitted requests in flight",
				cs.cfg.Name, cs.inflight))
		}
		if cs.n.BrownoutEnters < cs.n.BrownoutExits {
			v = append(v, fmt.Sprintf("brownout: class %s exited %d times but entered only %d",
				cs.cfg.Name, cs.n.BrownoutExits, cs.n.BrownoutEnters))
		}
	}
	return v
}

// Recovery returns the duration between class i's last brownout entry
// and the exit that followed it, and whether such a completed
// episode exists. This is the brownout-recovery SLO measurement.
func (c *Controller) Recovery(i int) (time.Duration, bool) {
	var enter int64
	haveEnter := false
	var rec time.Duration
	ok := false
	for _, t := range c.transitions {
		if t.Class != i {
			continue
		}
		if t.Enter {
			enter, haveEnter = t.At, true
		} else if haveEnter {
			rec, ok = time.Duration(t.At-enter), true
			haveEnter = false
		}
	}
	return rec, ok
}
