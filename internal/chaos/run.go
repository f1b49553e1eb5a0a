package chaos

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/ktime"
	"enoki/internal/record"
	"enoki/internal/schedtest"
	"enoki/internal/schedtest/conformance"
	"enoki/internal/vpol"
)

// StormHint is the hint payload PlaneHintStorm pushes. Modules ignore
// unknown hint types by contract, so a storm stresses only the ring and the
// notification path, never module semantics.
type StormHint struct{ N int }

func init() { gob.Register(StormHint{}) }

// Seed salts: every stream a run draws from derives from Schedule.Seed, but
// through distinct salts so the workload, the kernel fault draws, and the
// schedule generation never share a sequence.
const (
	workloadSalt uint64 = 0x9e3779b97f4a7c15
	kernelSalt   uint64 = 0xbf58476d1ce4e5b9
)

// The v1: run shape. The budget is far beyond what any healthy run needs,
// so starved tasks are visible as lost progress; the watchdog window is
// tight, so starvation faults resolve quickly inside it.
const (
	runTasks        = 24
	runBudget       = time.Second
	runStarveWindow = 5 * time.Millisecond
	runPntErrBudget = 64
)

// RunConfig selects the v1: configuration under test. Rollback is
// intentionally "on unless disabled" via NoRollback so the zero value tests
// the shipped (transactional) configuration.
type RunConfig struct {
	// NoRollback disables transactional upgrades, reverting to kill-on-
	// upgrade-fault — the deliberately seeded bug the oracle must catch.
	NoRollback bool
	// VerifiedTier additionally mounts the verified-bytecode dual-queue
	// program above the class under test, routing every third workload
	// task through the interpreter. No chaos plane targets the verified
	// tier, so the oracle treats a verified-class kill as a violation.
	VerifiedTier bool
}

// UpgradeOutcome pairs one scheduled upgrade with what the adapter reported.
type UpgradeOutcome struct {
	// Faulty marks a PlaneUpgradeKill upgrade (new version panics in init).
	Faulty bool
	Report enokic.UpgradeReport
}

// Result is one chaos run's observable outcome plus the oracle's verdict.
type Result struct {
	Verdict
	Schedule  Schedule[Event]
	Tasks     int
	Completed int
	Killed    bool
	Failure   *enokic.FailureReport
	Stats     enokic.Stats
	Upgrades  []UpgradeOutcome
	// VerifiedKilled/VerifiedFailure/VerifiedPicks report the verified
	// tier's fate when RunConfig.VerifiedTier mounted it.
	VerifiedKilled  bool
	VerifiedFailure *vpol.FailureReport
	VerifiedPicks   uint64
	// UpgradesScheduled counts upgrades the schedule requested; every one
	// must produce exactly one outcome (possibly ErrModuleKilled).
	UpgradesScheduled int
	// HintAttempts counts storm pushes, checked against delivered+dropped.
	HintAttempts uint64
	// RecordLog is the raw record-channel bytes (nil for the module-less
	// CFS baseline), kept so determinism tests can compare runs byte for
	// byte.
	RecordLog []byte
}

// Single is the `v1:` family: one machine sabotaged from the inside —
// module panics, stalls and forgeries, hint storms, IPI loss, timer skew,
// clean and faulty live upgrades — under a seeded churn workload.
var Single = &Family[Event, RunConfig, Result]{
	Prefix: "v1",
	events: generate,
	Run:    run,
	flags: func(rc RunConfig) string {
		return flagIf(rc.NoRollback, " -norollback") + flagIf(rc.VerifiedTier, " -verified")
	},
}

func caseByName(name string) (conformance.Case, bool) {
	for _, c := range conformance.Cases() {
		if c.Name == name {
			return c, true
		}
	}
	return conformance.Case{}, false
}

// ClassNames lists every scheduler class a campaign can target.
func ClassNames() []string {
	cases := conformance.Cases()
	out := make([]string, len(cases))
	for i, c := range cases {
		out[i] = c.Name
	}
	return out
}

// kernelFaults implements core.KernelFaultInjector for the kernel planes:
// window-gated IPI drop/delay/duplication and timer skew. All draws come
// from a dedicated seeded stream and the methods never allocate, honouring
// the injector contract.
type kernelFaults struct {
	clock func() int64
	rng   *ktime.Rand

	dropFrom, dropUntil   int64
	dropMag               int64
	delayFrom, delayUntil int64
	delayMag              int64
	dupFrom, dupUntil     int64
	dupMag                int64
	skewFrom, skewUntil   int64
	skewMag               int64
}

func within(now, from, until int64) bool {
	return until > from && now >= from && now < until
}

// DisarmedInjector returns the engine's kernel fault injector with no fault
// window armed — the steady state every chaos run's kick and timer paths see
// between events. Exported so the allocation ratchet can pin "disabled fault
// hooks are free" against the real injector code rather than a stand-in.
func DisarmedInjector(clock func() int64, seed uint64) core.KernelFaultInjector {
	return &kernelFaults{clock: clock, rng: ktime.NewRand(seed)}
}

func (f *kernelFaults) InterceptKick(target int, delay time.Duration) core.KickFate {
	now := f.clock()
	var fate core.KickFate
	if within(now, f.dropFrom, f.dropUntil) {
		fate.Delay += time.Duration(f.dropMag)
	}
	if within(now, f.delayFrom, f.delayUntil) && f.delayMag > 0 {
		fate.Delay += time.Duration(f.rng.Uint64() % uint64(f.delayMag))
	}
	if within(now, f.dupFrom, f.dupUntil) {
		fate.Duplicate = true
		fate.DupDelay = time.Duration(f.dupMag)
	}
	return fate
}

func (f *kernelFaults) SkewTimer(cpu int, d time.Duration) time.Duration {
	now := f.clock()
	if within(now, f.skewFrom, f.skewUntil) && f.skewMag > 0 {
		d += time.Duration(f.rng.Uint64() % uint64(f.skewMag))
	}
	return d
}

// sabotagedRig builds the 8-core machine for c with a fault injector
// interposed between the adapter and the module and arms the schedule's
// module- and kernel-plane events on it — the planes the v1: and t1: runners
// share; every other plane is the caller's. The CFS baseline has no module,
// so the injector is never mounted and module planes arm nothing.
func sabotagedRig(c conformance.Case, cfg enokic.Config, s Schedule[Event]) *conformance.Rig {
	inj := &schedtest.Injector{}
	rig := conformance.NewRig(c, cfg, func(m core.Scheduler) core.Scheduler {
		inj.Scheduler = m
		return inj
	})
	k := rig.K
	inj.Clock = func() int64 { return int64(k.Now()) }
	kf := &kernelFaults{clock: inj.Clock, rng: ktime.NewRand(s.Seed ^ kernelSalt)}
	armedKernel := false
	for _, ev := range s.Enabled() {
		switch ev.Plane {
		case PlanePanic:
			inj.PanicSite, inj.PanicAt = ev.Site, ev.Count
		case PlaneStall:
			inj.StallFrom = ev.At
			inj.StallUntil = 0
			if ev.Dur > 0 {
				inj.StallUntil = ev.At + ev.Dur
			}
		case PlaneForge:
			inj.ForgeFrom, inj.ForgeCount = int(ev.Mag), ev.Count
		case PlaneIPIDrop:
			kf.dropFrom, kf.dropUntil, kf.dropMag = ev.At, ev.At+ev.Dur, ev.Mag
			armedKernel = true
		case PlaneIPIDelay:
			kf.delayFrom, kf.delayUntil, kf.delayMag = ev.At, ev.At+ev.Dur, ev.Mag
			armedKernel = true
		case PlaneIPIDup:
			kf.dupFrom, kf.dupUntil, kf.dupMag = ev.At, ev.At+ev.Dur, ev.Mag
			armedKernel = true
		case PlaneTimerSkew:
			kf.skewFrom, kf.skewUntil, kf.skewMag = ev.At, ev.At+ev.Dur, ev.Mag
			armedKernel = true
		}
	}
	if armedKernel {
		k.SetFaultInjector(kf)
	}
	return rig
}

// newGeneration builds the module a live upgrade swaps in; a faulty one
// panics in reregister_init, which the transactional path must roll back.
func newGeneration(c conformance.Case, env core.Env, ncpus int, faulty bool) core.Scheduler {
	m := c.NewModule(env, ncpus)
	if faulty {
		return &schedtest.Injector{Scheduler: m, PanicInInit: true}
	}
	return m
}

// run executes one v1: schedule against its class and judges the outcome
// with the invariant oracle.
func run(s Schedule[Event], rc RunConfig) Result {
	c, ok := caseByName(s.Class)
	if !ok {
		return Result{Schedule: s, Verdict: Verdict{[]string{fmt.Sprintf("unknown class %q", s.Class)}}}
	}

	cfg := enokic.DefaultConfig()
	cfg.StarveWindow = runStarveWindow
	cfg.PntErrBudget = runPntErrBudget
	cfg.UpgradeRollback = !rc.NoRollback
	if rc.VerifiedTier {
		c.Verified = vpol.DualQueueProgram()
	}
	rig := sabotagedRig(c, cfg, s)
	k := rig.K
	eng := k.Engine()

	res := Result{Schedule: s, Tasks: runTasks}

	var buf bytes.Buffer
	var rec *record.Recorder
	if rig.Adapter != nil {
		rec = record.New(k, &buf, conformance.PolicyCFS, record.DefaultCosts())
		rig.Adapter.SetRecorder(rec)
	}

	var storms []Event
	for _, ev := range s.Enabled() {
		switch ev.Plane {
		case PlaneHintStorm:
			if rig.Adapter != nil && c.SupportsHints {
				storms = append(storms, ev)
			}
		case PlaneUpgrade, PlaneUpgradeKill:
			if rig.Adapter == nil {
				break
			}
			faulty := ev.Plane == PlaneUpgradeKill
			res.UpgradesScheduled++
			eng.Post(time.Duration(ev.At), func() {
				resolve := func(rep enokic.UpgradeReport) {
					res.Upgrades = append(res.Upgrades, UpgradeOutcome{Faulty: faulty, Report: rep})
				}
				err := rig.Adapter.Upgrade(func(env core.Env) core.Scheduler {
					return newGeneration(c, env, k.NumCPUs(), faulty)
				}, resolve)
				if err != nil {
					resolve(enokic.UpgradeReport{Err: err}) // module already dead: the refusal is the outcome
				}
			})
		}
	}
	if len(storms) > 0 {
		// A tiny ring makes overflow certain; the accounting must balance.
		q := rig.Adapter.CreateHintQueue(8)
		if q != nil {
			for _, ev := range storms {
				eng.Post(time.Duration(ev.At), func() {
					for j := 0; j < ev.Count; j++ {
						res.HintAttempts++
						q.Send(StormHint{N: j})
					}
				})
			}
		}
	}

	checker := conformance.StartChecker(rig, 200*time.Microsecond)
	w := conformance.Workload{
		Seed:   s.Seed ^ workloadSalt,
		Tasks:  runTasks,
		Churn:  true,
		Budget: runBudget,
	}
	res.Completed = w.Run(rig)
	checker.Stop()

	if rig.Adapter != nil {
		res.Killed = rig.Adapter.Killed()
		res.Failure = rig.Adapter.Failure()
		res.Stats = rig.Adapter.Stats()
	}
	if rig.Verified != nil {
		res.VerifiedKilled = rig.Verified.Killed()
		res.VerifiedFailure = rig.Verified.Failure()
		res.VerifiedPicks = rig.Verified.Stats().Picks
	}
	if rec != nil {
		rec.Close()
		res.RecordLog = buf.Bytes()
	}

	res.Violations = oracle(&res, rc, checker)
	return res
}

// killJustified reports whether any enabled event belongs to a plane for
// which killing the module is a legitimate fault-layer response. Upgrade
// planes never justify a kill (the transaction must roll back), nor do hint
// storms (overflow sheds, it does not corrupt) or kernel planes (IPI and
// timer degradation bound liveness but never destroy it).
func killJustified(s Schedule[Event]) bool {
	for _, ev := range s.Enabled() {
		switch ev.Plane {
		case PlanePanic, PlaneStall, PlaneForge:
			return true
		}
	}
	return false
}

// oracle evaluates the run's invariants. Every rule is a property any
// correct configuration must uphold under any fault schedule, so a verdict
// never needs to know what the faults "should" have done — only what the
// stack guarantees.
func oracle(r *Result, rc RunConfig, checker *conformance.Checker) []string {
	var v []string
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	// No lost tasks: whatever faulted, every task finishes — under the
	// module, or under CFS after a rehome.
	if r.Completed != r.Tasks {
		add("lost tasks: %d of %d completed within budget", r.Completed, r.Tasks)
	}
	// No double-run / state / affinity breaches.
	for _, cv := range checker.Violations {
		add("checker: %s", cv)
	}
	// The verified tier is untargeted by every chaos plane and its
	// programs are statically verified, so any verified-class kill is a
	// bug in the interpreter or verifier — and an idle verified tier
	// means its share of the workload was never scheduled through it.
	if r.VerifiedKilled {
		trap := "unknown"
		if r.VerifiedFailure != nil {
			trap = r.VerifiedFailure.Trap.String()
		}
		add("verified class killed (no chaos plane targets the verified tier): %s", trap)
	}
	if rc.VerifiedTier && r.VerifiedPicks == 0 {
		add("verified tier mounted but never picked a task")
	}
	// Kills must be earned by a module-sabotage plane.
	if r.Killed && !killJustified(r.Schedule) {
		cause := "unknown"
		if r.Failure != nil {
			cause = r.Failure.Fault.String()
		}
		add("module killed without a kill-justifying fault plane: %s", cause)
	}
	// The watchdog must fire within its budget: detection lag is bounded
	// by the window plus one re-arm granularity (with slack for stacked
	// fault timing).
	if r.Failure != nil && r.Failure.Fault.Cause == core.FaultStarvation {
		if r.Failure.Downtime > 4*runStarveWindow {
			add("watchdog exceeded budget: starved %v with window %v",
				r.Failure.Downtime, time.Duration(runStarveWindow))
		}
	}
	// Every scheduled upgrade resolves exactly once — success, rollback,
	// or ErrModuleKilled — never silence.
	if len(r.Upgrades) != r.UpgradesScheduled {
		add("upgrade callbacks: %d scheduled, %d resolved", r.UpgradesScheduled, len(r.Upgrades))
	}
	// Upgrade transactionality, judged only while the module is alive (a
	// justified kill makes ErrModuleKilled the right answer; an unjustified
	// one is already reported above).
	if !r.Killed {
		for _, u := range r.Upgrades {
			switch {
			case u.Report.Err != nil:
				add("upgrade resolved with error on a live module: %v", u.Report.Err)
			case u.Faulty && !u.Report.RolledBack:
				add("faulty upgrade did not roll back (new module's init panicked)")
			case !u.Faulty && u.Report.RolledBack:
				add("clean upgrade rolled back: %v", u.Report.Fault)
			}
		}
	}
	// Hint accounting balances: every storm push is either delivered or a
	// counted drop — overload is observable, never silent.
	if r.HintAttempts > 0 && r.Stats.HintsDelivered+r.Stats.HintsDropped != r.HintAttempts {
		add("hint accounting leak: %d delivered + %d dropped != %d attempts",
			r.Stats.HintsDelivered, r.Stats.HintsDropped, r.HintAttempts)
	}
	// The record log survives whatever the run did to the module.
	if r.RecordLog != nil {
		if _, err := record.Load(bytes.NewReader(r.RecordLog)); err != nil {
			add("record log not decodable: %v", err)
		}
	}
	return v
}
