// Fleet rollouts: the control plane upgrades a named scheduler-module
// generation across the cluster in canary waves. Each wave upgrades a batch
// of machines through enokic's transactional path, soaks them under live
// load, probes their health, and gates widening on per-machine SLO
// verdicts; any failing verdict halts the rollout and rolls every
// already-upgraded machine back to the previous generation. The whole state
// machine runs on the control-plane engine and talks to machines only
// through fleet messages, so a rollout — including a halt-and-rollback — is
// deterministic and byte-identical between serial and parallel fleet
// drives.
//
// Slot state machine (one slot per target machine):
//
//	Pending ──wave──▶ Upgrading ──ack──▶ Observing ──verdict──▶ Healthy
//	                      │                  │                     │
//	                      │ (upgrade failed, │ (SLO verdict        │ (halt)
//	                      │  machine died)   │  failed, died)      ▼
//	                      └───────▶ Failed ◀─┘              RollingBack
//	                                                              │
//	   Dead ◀── (machine died in any state) ──── RolledBack ◀─────┘
package cluster

import (
	"errors"
	"fmt"
	"math"
	"time"

	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/ktime"
	"enoki/internal/stats"
)

// Rollout errors.
var (
	// ErrRolloutActive: only one rollout may be in flight per cluster.
	ErrRolloutActive = errors.New("cluster: a rollout is already in flight")
	// ErrNoModules: no alive machine exposes upgradable modules — the
	// cluster was built without Config.SetupModules.
	ErrNoModules = errors.New("cluster: no machine exposes upgradable modules")
)

// RolloutConfig parameterizes one fleet rollout. Version and Factory are
// required; every other zero field takes a default.
type RolloutConfig struct {
	// Version names the new module generation (enokic version lineage).
	Version string
	// Factory builds the new scheduler for one shard of one machine.
	Factory func(machine int, env core.Env) core.Scheduler
	// Canary is the first-wave fraction of target machines (default 0.02,
	// always at least one machine).
	Canary float64
	// Widen multiplies the wave width after each healthy wave (default 4).
	Widen int
	// Observe is the soak window between a wave's last upgrade ack and its
	// health probes (default 2ms).
	Observe time.Duration
	// MaxFaults is the per-machine budget of fault-killed modules found at
	// probe time (default 0: any kill fails the verdict).
	MaxFaults int
	// MinCompletion, when positive, is the floor on done/assigned over the
	// soak window for machines that had jobs assigned at soak start.
	MinCompletion float64
	// MaxStartP99 is the ceiling on the machine's start-op ack p99 during
	// the soak (default 5ms).
	MaxStartP99 time.Duration
	// NoDeathResolve disables the failure-detector resolution of in-flight
	// rollout slots, reintroducing the pre-fix hang where a wave waits
	// forever on a dead canary. Test-only: it exists so the chaos suite has
	// a seeded bug to catch and minimize.
	NoDeathResolve bool
}

func (c RolloutConfig) withDefaults() RolloutConfig {
	if c.Canary <= 0 {
		c.Canary = 0.02
	}
	if c.Widen < 2 {
		c.Widen = 4
	}
	if c.Observe <= 0 {
		c.Observe = 2 * time.Millisecond
	}
	if c.MaxStartP99 <= 0 {
		c.MaxStartP99 = 5 * time.Millisecond
	}
	return c
}

// RolloutOption mutates a RolloutConfig; Cluster.Rollout applies them in
// order.
type RolloutOption func(*RolloutConfig)

// SlotState is one machine's stage in the rollout state machine.
type SlotState uint8

// Slot states. A target machine is Pending until its wave starts, Upgrading
// while the upgrade op is outstanding, Observing through the soak window,
// then Healthy or Failed on the verdict. A halt moves machines that may
// hold the new generation through RollingBack to RolledBack. Dead absorbs
// machines the failure detector removed.
const (
	SlotPending SlotState = iota
	SlotUpgrading
	SlotObserving
	SlotHealthy
	SlotFailed
	SlotRollingBack
	SlotRolledBack
	SlotDead
)

func (s SlotState) String() string {
	switch s {
	case SlotPending:
		return "pending"
	case SlotUpgrading:
		return "upgrading"
	case SlotObserving:
		return "observing"
	case SlotHealthy:
		return "healthy"
	case SlotFailed:
		return "failed"
	case SlotRollingBack:
		return "rollingback"
	case SlotRolledBack:
		return "rolledback"
	case SlotDead:
		return "dead"
	default:
		return "invalid"
	}
}

// upgradeSummary is a machine agent's roll-up of one machine-wide upgrade
// (or rollback) operation: how each shard's transaction resolved.
type upgradeSummary struct {
	Shards     int // shards holding upgradable modules
	Committed  int // transactions that committed (rollback op: shards off the new version)
	RolledBack int // transactions enokic aborted and rolled back
	Errs       int // terminal errors (ErrModuleKilled et al.)
}

// healthSummary is a machine agent's probe report at the end of a soak
// window.
type healthSummary struct {
	Shards   int // shards probed
	OnTarget int // shards serving the rollout version (and not killed)
	Killed   int // shards whose module the fault layer killed
}

// MachineVerdict is the per-machine SLO verdict gating a wave. Healthy is
// the conjunction of every rule; Reasons lists the rules that failed.
type MachineVerdict struct {
	Machine int
	Wave    int
	Healthy bool
	Died    bool // the failure detector removed the machine mid-rollout
	// Upgrade outcome, from the machine's ack.
	Shards            int
	UpgradeRolledBack int // shards whose upgrade transaction aborted
	UpgradeErrs       int // shards whose upgrade died (incl. machine death)
	// Probe outcome.
	ShardsOnTarget int
	Faults         int
	// Soak outcome: jobs assigned at soak start, completions during it, and
	// the start-op ack p99 observed over the window (0 when no starts
	// landed).
	Assigned  int
	Completed int
	StartP99  time.Duration
	Reasons   []string
}

// WaveReport records one wave's membership and casualties.
type WaveReport struct {
	Wave     int
	Machines []int
	Failed   []int
}

// RolloutReport is the replayable record of one rollout: identical across
// serial and parallel drives of the same cluster history.
type RolloutReport struct {
	Version  string // generation rolled out
	Previous string // generation the fleet ran before
	Targets  int    // machines with upgradable modules at start
	Canary   int    // first-wave width
	Waves    []WaveReport
	Verdicts []MachineVerdict
	// Outcome. Completed means every surviving target ended Healthy;
	// Halted means a failing verdict stopped the widening and the rollback
	// executed. HaltedWave is -1 unless halted.
	Completed    bool
	Halted       bool
	HaltedWave   int
	Upgraded     int // machines Healthy on the new generation at resolution
	RolledBack   int // machines restored to the previous generation
	RollbackErrs int // shards whose rollback did not restore the old generation
	Dead         int // target machines lost to failures mid-rollout
	StartedAt    ktime.Time
	ResolvedAt   ktime.Time
}

func (r RolloutReport) clone() RolloutReport {
	out := r
	out.Waves = make([]WaveReport, len(r.Waves))
	for i, w := range r.Waves {
		w.Machines = append([]int(nil), w.Machines...)
		w.Failed = append([]int(nil), w.Failed...)
		out.Waves[i] = w
	}
	out.Verdicts = make([]MachineVerdict, len(r.Verdicts))
	for i, v := range r.Verdicts {
		v.Reasons = append([]string(nil), v.Reasons...)
		out.Verdicts[i] = v
	}
	return out
}

// rolloutPhase is the barrier the orchestrator is currently waiting on.
type rolloutPhase uint8

const (
	phaseIdle     rolloutPhase = iota
	phaseUpgrade               // waiting for the wave's upgrade acks
	phaseObserve               // soak timer armed
	phaseProbe                 // waiting for the wave's probe reports
	phaseRollback              // waiting for rollback acks fleet-wide
)

// rolloutSlot is the control plane's state for one target machine.
type rolloutSlot struct {
	machine  int
	state    SlotState
	wave     int
	awaiting bool // an op toward this machine is unacknowledged
	died     bool
	up       upgradeSummary
	health   healthSummary
	rbErrs   int // rollback shards that failed to restore the old generation
	// Soak baselines and samples.
	done0     int
	assigned0 int
	startHist stats.LogHist
}

// Rollout is one in-flight (or resolved) fleet rollout. Construct it with
// Cluster.Rollout or Cluster.StartRollout between runs; read Report after
// Done reports true.
type Rollout struct {
	c        *Cluster
	cfg      RolloutConfig
	order    []int          // target machine ids, ascending
	slots    []*rolloutSlot // indexed by machine id; nil for non-targets
	wave     int
	waveIDs  []int
	awaiting int // outstanding machine acks on the current barrier
	phase    rolloutPhase
	halted   bool
	resolved bool
	report   RolloutReport
}

// Rollout starts a wave-based canary upgrade of every machine built with
// Config.SetupModules toward generation version. Call it between runs (or
// from a control-plane event); the first wave begins on the next engine
// step and the rollout resolves within the run — RunUntilIdle will not stop
// while one is in flight.
func (c *Cluster) Rollout(version string, factory func(machine int, env core.Env) core.Scheduler, opts ...RolloutOption) (*Rollout, error) {
	cfg := RolloutConfig{Version: version, Factory: factory}
	for _, o := range opts {
		o(&cfg)
	}
	return c.StartRollout(cfg)
}

// StartRollout is Rollout with an explicit config.
func (c *Cluster) StartRollout(cfg RolloutConfig) (*Rollout, error) {
	if c.closed {
		return nil, fmt.Errorf("cluster: StartRollout: %w", ErrClosed)
	}
	if c.rollout != nil && !c.rollout.resolved {
		return nil, ErrRolloutActive
	}
	if cfg.Version == "" {
		return nil, errors.New("cluster: RolloutConfig.Version is required")
	}
	if cfg.Factory == nil {
		return nil, errors.New("cluster: RolloutConfig.Factory is required")
	}
	cfg = cfg.withDefaults()
	r := &Rollout{c: c, cfg: cfg, slots: make([]*rolloutSlot, len(c.machines))}
	prev := ""
	for i, m := range c.machines {
		if !c.sched.view[i].Alive {
			continue
		}
		upgradable := false
		for _, ad := range m.ads {
			if ad != nil {
				upgradable = true
				if prev == "" {
					prev = ad.Version()
				}
			}
		}
		if !upgradable {
			continue
		}
		r.order = append(r.order, i)
		r.slots[i] = &rolloutSlot{machine: i, state: SlotPending, wave: -1}
	}
	if len(r.order) == 0 {
		return nil, ErrNoModules
	}
	canary := int(math.Ceil(cfg.Canary * float64(len(r.order))))
	if canary < 1 {
		canary = 1
	}
	r.report = RolloutReport{
		Version: cfg.Version, Previous: prev,
		Targets: len(r.order), Canary: canary,
		HaltedWave: -1, StartedAt: c.ctrl.Now(),
	}
	c.rollout = r
	c.ctrl.Post(0, r.startWave)
	return r, nil
}

// Done reports whether the rollout has resolved (completed, halted and
// rolled back, or ran out of alive targets).
func (r *Rollout) Done() bool { return r.resolved }

// Halted reports whether a failing verdict stopped the rollout.
func (r *Rollout) Halted() bool { return r.halted }

// Report returns a copy of the rollout record. Read it between runs.
func (r *Rollout) Report() RolloutReport { return r.report.clone() }

// SlotStatus is one target machine's position in the rollout state machine.
type SlotStatus struct {
	Machine int
	State   SlotState
	Wave    int // -1 when the machine never joined a wave
}

// Slots returns every target machine's slot status in id order. Read it
// between runs; once the rollout resolves the states are final and every
// slot is Pending (untouched), Healthy, RolledBack, or Dead.
func (r *Rollout) Slots() []SlotStatus {
	out := make([]SlotStatus, 0, len(r.order))
	for _, mi := range r.order {
		sl := r.slots[mi]
		out = append(out, SlotStatus{Machine: mi, State: sl.state, Wave: sl.wave})
	}
	return out
}

// waveWidth is the wave's machine count: Canary targets widened Widen× per
// healthy wave, capped at the full target set.
func (r *Rollout) waveWidth(wave int) int {
	n := r.report.Canary
	for i := 0; i < wave; i++ {
		n *= r.cfg.Widen
		if n >= len(r.order) {
			return len(r.order)
		}
	}
	return n
}

// startWave opens the next wave: claim up to waveWidth pending alive
// machines in id order and send each an upgrade op. No pending machines
// left means the rollout converged.
func (r *Rollout) startWave() {
	if r.resolved || r.halted {
		return
	}
	width := r.waveWidth(r.wave)
	r.waveIDs = r.waveIDs[:0]
	for _, mi := range r.order {
		sl := r.slots[mi]
		if sl.state != SlotPending {
			continue
		}
		if !r.c.sched.view[mi].Alive || sl.died {
			sl.died = true
			sl.state = SlotDead
			continue
		}
		r.waveIDs = append(r.waveIDs, mi)
		if len(r.waveIDs) == width {
			break
		}
	}
	if len(r.waveIDs) == 0 {
		r.finish(true)
		return
	}
	r.report.Waves = append(r.report.Waves, WaveReport{
		Wave: r.wave, Machines: append([]int(nil), r.waveIDs...),
	})
	r.phase = phaseUpgrade
	for _, mi := range r.waveIDs {
		sl := r.slots[mi]
		sl.state = SlotUpgrading
		sl.wave = r.wave
		sl.awaiting = true
		r.awaiting++
		r.sendUpgrade(mi)
	}
}

// sendUpgrade ships the upgrade op to machine mi over the fleet.
func (r *Rollout) sendUpgrade(mi int) {
	c := r.c
	m := c.machines[mi]
	at := c.ctrl.Now().Add(ktime.Duration(c.cfg.NetLatency))
	c.fl.SendHandoff(c.ctrlNode, m.node, at, func() { m.applyUpgrade(r, at) })
}

// sendProbe ships the health probe to machine mi.
func (r *Rollout) sendProbe(mi int) {
	c := r.c
	m := c.machines[mi]
	at := c.ctrl.Now().Add(ktime.Duration(c.cfg.NetLatency))
	c.fl.SendHandoff(c.ctrlNode, m.node, at, func() { m.applyProbe(r, at) })
}

// sendRollback ships the rollback op to machine mi.
func (r *Rollout) sendRollback(mi int) {
	c := r.c
	m := c.machines[mi]
	at := c.ctrl.Now().Add(ktime.Duration(c.cfg.NetLatency))
	c.fl.SendHandoff(c.ctrlNode, m.node, at, func() { m.applyRollback(r, at) })
}

// ackBarrier retires one outstanding machine ack and advances the phase
// when the barrier clears.
func (r *Rollout) ackBarrier() {
	r.awaiting--
	if r.awaiting > 0 || r.resolved {
		return
	}
	switch r.phase {
	case phaseUpgrade:
		r.waveUpgraded()
	case phaseProbe:
		r.evaluateWave()
	case phaseRollback:
		r.finish(false)
	}
}

// upgradeAck handles a machine's upgrade roll-up.
func (r *Rollout) upgradeAck(mi int, sum upgradeSummary) {
	if r.resolved {
		return
	}
	sl := r.slots[mi]
	if sl == nil || !sl.awaiting || sl.state != SlotUpgrading {
		return // stale: the slot resolved another way (e.g. death detection)
	}
	sl.awaiting = false
	sl.up = sum
	if sum.Errs > 0 || sum.RolledBack > 0 {
		sl.state = SlotFailed
	} else {
		sl.state = SlotObserving
	}
	r.ackBarrier()
}

// waveUpgraded runs when every upgrade in the wave acked (or resolved via
// death detection): start the soak if the wave is clean, otherwise go
// straight to verdicts — the canary already failed.
func (r *Rollout) waveUpgraded() {
	clean := true
	for _, mi := range r.waveIDs {
		if r.slots[mi].state != SlotObserving {
			clean = false
			break
		}
	}
	if !clean {
		r.evaluateWave()
		return
	}
	for _, mi := range r.waveIDs {
		sl := r.slots[mi]
		sl.done0 = r.c.sched.doneByMachine[mi]
		sl.assigned0 = r.c.sched.view[mi].Assigned
		sl.startHist.Reset()
	}
	r.phase = phaseObserve
	r.c.ctrl.Post(ktime.Duration(r.cfg.Observe), r.observeEnd)
}

// noteStartAck records a start-op ack latency against machine mi's slot
// while it soaks. Called from jobScheduler.onStarted.
func (r *Rollout) noteStartAck(mi int, lat time.Duration) {
	if r.resolved || r.phase != phaseObserve {
		return
	}
	if sl := r.slots[mi]; sl != nil && sl.state == SlotObserving {
		sl.startHist.Record(lat)
	}
}

// observeEnd closes the soak window: probe every wave machine still
// observing. Machines that died during the soak skip the probe — their
// verdict fails on the death.
func (r *Rollout) observeEnd() {
	if r.resolved || r.halted {
		return
	}
	r.phase = phaseProbe
	for _, mi := range r.waveIDs {
		sl := r.slots[mi]
		if sl.state != SlotObserving {
			continue
		}
		sl.awaiting = true
		r.awaiting++
		r.sendProbe(mi)
	}
	if r.awaiting == 0 {
		r.evaluateWave()
	}
}

// probeAck handles a machine's health probe report.
func (r *Rollout) probeAck(mi int, sum healthSummary) {
	if r.resolved {
		return
	}
	sl := r.slots[mi]
	if sl == nil || !sl.awaiting || sl.state != SlotObserving {
		return
	}
	sl.awaiting = false
	sl.health = sum
	r.ackBarrier()
}

// verdict applies the SLO rules to one wave slot.
func (r *Rollout) verdict(sl *rolloutSlot) MachineVerdict {
	cfg := r.cfg
	v := MachineVerdict{
		Machine: sl.machine, Wave: sl.wave, Died: sl.died,
		Shards:            sl.up.Shards,
		UpgradeRolledBack: sl.up.RolledBack,
		UpgradeErrs:       sl.up.Errs,
		ShardsOnTarget:    sl.health.OnTarget,
		Faults:            sl.health.Killed,
	}
	if sl.died {
		v.Reasons = append(v.Reasons, "machine died during rollout")
	}
	if sl.up.RolledBack > 0 {
		v.Reasons = append(v.Reasons, fmt.Sprintf(
			"upgrade rolled back on %d/%d shards", sl.up.RolledBack, sl.up.Shards))
	}
	if sl.up.Errs > 0 {
		v.Reasons = append(v.Reasons, fmt.Sprintf(
			"upgrade failed on %d/%d shards", sl.up.Errs, sl.up.Shards))
	}
	if sl.health.Shards > 0 { // probed: soak rules apply
		if sl.health.Killed > cfg.MaxFaults {
			v.Reasons = append(v.Reasons, fmt.Sprintf(
				"%d module faults during soak (budget %d)", sl.health.Killed, cfg.MaxFaults))
		}
		if sl.health.OnTarget < sl.health.Shards {
			v.Reasons = append(v.Reasons, fmt.Sprintf(
				"only %d/%d shards serving %s", sl.health.OnTarget, sl.health.Shards, cfg.Version))
		}
		v.Assigned = sl.assigned0
		v.Completed = r.c.sched.doneByMachine[sl.machine] - sl.done0
		if cfg.MinCompletion > 0 && sl.assigned0 > 0 {
			if rate := float64(v.Completed) / float64(sl.assigned0); rate < cfg.MinCompletion {
				v.Reasons = append(v.Reasons, fmt.Sprintf(
					"completion %.2f below floor %.2f", rate, cfg.MinCompletion))
			}
		}
		if sl.startHist.Count() > 0 {
			v.StartP99 = time.Duration(sl.startHist.Quantile(0.99))
			if v.StartP99 > cfg.MaxStartP99 {
				v.Reasons = append(v.Reasons, fmt.Sprintf(
					"start-ack p99 %v above ceiling %v", v.StartP99, cfg.MaxStartP99))
			}
		}
	}
	v.Healthy = len(v.Reasons) == 0
	return v
}

// evaluateWave turns the wave's slots into verdicts and either widens or
// halts.
func (r *Rollout) evaluateWave() {
	r.phase = phaseIdle
	failed := false
	wr := &r.report.Waves[len(r.report.Waves)-1]
	for _, mi := range r.waveIDs {
		sl := r.slots[mi]
		v := r.verdict(sl)
		r.report.Verdicts = append(r.report.Verdicts, v)
		if v.Healthy {
			sl.state = SlotHealthy
		} else {
			if sl.state != SlotDead {
				sl.state = SlotFailed
			}
			wr.Failed = append(wr.Failed, mi)
			failed = true
		}
	}
	if failed {
		r.halt()
		return
	}
	r.wave++
	r.startWave()
}

// halt stops the widening and rolls back every machine that may hold the
// new generation: Healthy machines from earlier waves and this wave's
// surviving members (a partially-committed upgrade leaves shards on the new
// version; the rollback op is per-shard conditional). Dead machines are
// skipped — there is nothing left to message.
func (r *Rollout) halt() {
	r.halted = true
	r.report.Halted = true
	r.report.HaltedWave = r.wave
	r.phase = phaseRollback
	for _, mi := range r.order {
		sl := r.slots[mi]
		switch sl.state {
		case SlotHealthy, SlotObserving, SlotFailed:
			if sl.died {
				sl.state = SlotDead
				continue
			}
			sl.state = SlotRollingBack
			sl.awaiting = true
			r.awaiting++
			r.sendRollback(mi)
		}
	}
	if r.awaiting == 0 {
		r.finish(false)
	}
}

// rollbackAck handles a machine's rollback roll-up.
func (r *Rollout) rollbackAck(mi int, sum upgradeSummary) {
	if r.resolved {
		return
	}
	sl := r.slots[mi]
	if sl == nil || !sl.awaiting || sl.state != SlotRollingBack {
		return
	}
	sl.awaiting = false
	sl.rbErrs = sum.Errs + sum.RolledBack
	sl.state = SlotRolledBack
	r.ackBarrier()
}

// machineDead resolves machine mi's slot when the failure detector declares
// it dead. An op in flight toward the machine will never be acknowledged —
// the fleet drops messages to dead nodes — so the slot must resolve here:
// the machine-side queued-upgrade death path fires done(ErrModuleKilled)
// for anything mid-blackout, and the control side accounts the death as a
// failed shard and retires the barrier ack so the wave proceeds to its
// verdict instead of waiting forever.
func (r *Rollout) machineDead(mi int) {
	if r.resolved || r.cfg.NoDeathResolve {
		return
	}
	sl := r.slots[mi]
	if sl == nil || sl.died || sl.state == SlotDead {
		return
	}
	sl.died = true
	switch sl.state {
	case SlotPending, SlotHealthy:
		sl.state = SlotDead
	case SlotUpgrading, SlotObserving:
		sl.state = SlotFailed
		if sl.awaiting {
			sl.awaiting = false
			sl.up.Errs++ // the death path's done(ErrModuleKilled), accounted here
			r.ackBarrier()
		}
	case SlotRollingBack:
		sl.state = SlotDead
		if sl.awaiting {
			sl.awaiting = false
			r.ackBarrier()
		}
	}
}

// finish resolves the rollout and totals the report.
func (r *Rollout) finish(converged bool) {
	if r.resolved {
		return
	}
	r.resolved = true
	r.phase = phaseIdle
	r.report.Completed = converged && !r.halted
	for _, mi := range r.order {
		sl := r.slots[mi]
		switch sl.state {
		case SlotHealthy:
			r.report.Upgraded++
		case SlotRolledBack:
			r.report.RolledBack++
			r.report.RollbackErrs += sl.rbErrs
		}
		if sl.died || sl.state == SlotDead {
			r.report.Dead++
		}
	}
	r.report.ResolvedAt = r.c.ctrl.Now()
}

// --- machine agent side -----------------------------------------------
//
// The agent ops below mirror applyStart/applyStop: the fleet delivers them
// at machine-executor level, they fan out to every module-holding shard via
// shard injection, accumulate a machine-local roll-up (the machine drive is
// serial, so plain mutation is safe and deterministic), and the last shard
// to resolve reports the roll-up back from the machine's fleet node.

// applyUpgrade injects an UpgradeTo into every shard holding a module and
// acks the machine-wide outcome once the last shard's transaction resolves.
func (m *Machine) applyUpgrade(r *Rollout, at ktime.Time) {
	sum := &upgradeSummary{}
	left := 0
	for _, ad := range m.ads {
		if ad != nil {
			left++
		}
	}
	sum.Shards = left
	mid := m.id
	finish := func(shard int) {
		left--
		if left > 0 {
			return
		}
		out := *sum
		m.report(shard, func(*jobScheduler) { r.upgradeAck(mid, out) })
	}
	version := r.cfg.Version
	for s, ad := range m.ads {
		if ad == nil {
			continue
		}
		shard, a := s, ad
		m.sk.Inject(shard, at, func() {
			factory := func(env core.Env) core.Scheduler { return r.cfg.Factory(mid, env) }
			err := a.UpgradeTo(version, factory, func(rep enokic.UpgradeReport) {
				switch {
				case rep.Err != nil:
					sum.Errs++
				case rep.RolledBack:
					sum.RolledBack++
				default:
					sum.Committed++
				}
				finish(shard)
			})
			if err != nil {
				sum.Errs++
				finish(shard)
			}
		})
	}
}

// applyProbe reads each shard's module health inside that shard's own
// context and acks the roll-up.
func (m *Machine) applyProbe(r *Rollout, at ktime.Time) {
	sum := &healthSummary{}
	left := 0
	for _, ad := range m.ads {
		if ad != nil {
			left++
		}
	}
	mid := m.id
	version := r.cfg.Version
	for s, ad := range m.ads {
		if ad == nil {
			continue
		}
		shard, a := s, ad
		m.sk.Inject(shard, at, func() {
			sum.Shards++
			if a.Killed() {
				sum.Killed++
			} else if a.Version() == version {
				sum.OnTarget++
			}
			left--
			if left == 0 {
				out := *sum
				m.report(shard, func(*jobScheduler) { r.probeAck(mid, out) })
			}
		})
	}
}

// applyRollback restores the previous generation on every shard still
// serving the rollout version — shards that never committed (or whose
// module is dead) have nothing to undo and count as already off the new
// generation.
func (m *Machine) applyRollback(r *Rollout, at ktime.Time) {
	sum := &upgradeSummary{}
	left := 0
	for _, ad := range m.ads {
		if ad != nil {
			left++
		}
	}
	sum.Shards = left
	mid := m.id
	finish := func(shard int) {
		left--
		if left > 0 {
			return
		}
		out := *sum
		m.report(shard, func(*jobScheduler) { r.rollbackAck(mid, out) })
	}
	version := r.cfg.Version
	for s, ad := range m.ads {
		if ad == nil {
			continue
		}
		shard, a := s, ad
		m.sk.Inject(shard, at, func() {
			if a.Killed() || a.Version() != version {
				sum.Committed++
				finish(shard)
				return
			}
			err := a.Rollback(func(rep enokic.UpgradeReport) {
				switch {
				case rep.Err != nil:
					sum.Errs++
				case rep.RolledBack:
					// The rollback transaction itself aborted: the new
					// generation kept serving, which defeats the halt.
					sum.RolledBack++
				default:
					sum.Committed++
				}
				finish(shard)
			})
			if err != nil {
				sum.Errs++
				finish(shard)
			}
		})
	}
}
