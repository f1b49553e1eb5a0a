package enokic

import (
	"testing"
	"time"

	"enoki/internal/core"
	"enoki/internal/kernel"
	"enoki/internal/sched/fifo"
	"enoki/internal/sched/wfq"
	"enoki/internal/schedtest"
)

// faultyFactory builds a new-version module whose reregister_init panics —
// the transfer-time fault the transactional upgrade path must roll back.
func faultyFactory(env core.Env) core.Scheduler {
	return &schedtest.Injector{Scheduler: wfq.New(env, policyEnoki), PanicInInit: true}
}

func TestUpgradeRollbackOnInitPanic(t *testing.T) {
	k, a := newRig(t, wfqFactory)
	done := 0
	for i := 0; i < 8; i++ {
		k.Spawn("w", policyEnoki, spin(20*time.Millisecond, 500*time.Microsecond),
			kernel.WithExitObserver(func() { done++ }))
	}
	k.RunFor(5 * time.Millisecond)
	oldSched := a.Scheduler()
	var report UpgradeReport
	resolved := false
	k.Engine().After(0, func() {
		a.Upgrade(faultyFactory, func(r UpgradeReport) { report = r; resolved = true })
	})
	k.RunFor(200 * time.Millisecond)

	if !resolved {
		t.Fatal("upgrade never resolved")
	}
	if !report.RolledBack {
		t.Fatalf("faulty upgrade did not roll back: %+v", report)
	}
	if report.Err != nil {
		t.Fatalf("rollback is not an error outcome, got %v", report.Err)
	}
	if report.Fault == nil || report.Fault.Cause != core.FaultPanic {
		t.Fatalf("rollback lost the contained fault: %+v", report.Fault)
	}
	if a.Scheduler() != oldSched {
		t.Fatal("dispatch pointer is not the restored old module")
	}
	if a.Killed() {
		t.Fatalf("module killed despite rollback: %+v", a.Failure())
	}
	if done != 8 {
		t.Fatalf("tasks lost across rolled-back upgrade: %d/8 completed", done)
	}
	if st := a.Stats(); st.PntErrs != 0 {
		t.Fatalf("stale picks after rollback: %+v", st)
	}
}

func TestUpgradeRollbackOnFactoryPanic(t *testing.T) {
	k, a := newRig(t, wfqFactory)
	done := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", policyEnoki, spin(10*time.Millisecond, 500*time.Microsecond),
			kernel.WithExitObserver(func() { done++ }))
	}
	var report UpgradeReport
	k.Engine().After(time.Millisecond, func() {
		a.Upgrade(func(core.Env) core.Scheduler { panic("broken build") },
			func(r UpgradeReport) { report = r })
	})
	k.RunFor(100 * time.Millisecond)

	if !report.RolledBack || report.Err != nil {
		t.Fatalf("factory panic must roll back: %+v", report)
	}
	if a.Killed() || done != 4 {
		t.Fatalf("killed=%v done=%d/4 after rolled-back factory panic", a.Killed(), done)
	}
}

// TestUpgradeRollbackDisabledKills pins the pre-transactional behavior the
// chaos campaign's seeded-bug mode exercises: with UpgradeRollback off, a
// transfer-time panic kills the module instead of restoring it.
func TestUpgradeRollbackDisabledKills(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpgradeRollback = false
	k, a := faultRig(cfg, wfqFactory)
	done := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", policyEnoki, spin(10*time.Millisecond, 500*time.Microsecond),
			kernel.WithExitObserver(func() { done++ }))
	}
	var report UpgradeReport
	k.Engine().After(time.Millisecond, func() {
		a.Upgrade(faultyFactory, func(r UpgradeReport) { report = r })
	})
	k.RunFor(100 * time.Millisecond)

	if report.Err != ErrModuleKilled {
		t.Fatalf("report.Err = %v, want ErrModuleKilled", report.Err)
	}
	if report.RolledBack {
		t.Fatal("RolledBack set with rollback disabled")
	}
	if !a.Killed() {
		t.Fatal("module not killed with rollback disabled")
	}
	if done != 4 {
		t.Fatalf("tasks lost in kill fallback: %d/4 completed under CFS", done)
	}
}

// badPrepare makes the OLD module's snapshot export panic: there is nothing
// healthy to restore, so even the transactional path must escalate to a kill.
type badPrepare struct{ core.Scheduler }

func (b badPrepare) ReregisterPrepare() *core.TransferOut { panic("prepare corrupt") }

func TestUpgradePrepareFaultIsFatal(t *testing.T) {
	k, a := newRig(t, func(env core.Env) core.Scheduler {
		return badPrepare{wfq.New(env, policyEnoki)}
	})
	done := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", policyEnoki, spin(10*time.Millisecond, 500*time.Microsecond),
			kernel.WithExitObserver(func() { done++ }))
	}
	var report UpgradeReport
	k.Engine().After(time.Millisecond, func() {
		a.Upgrade(wfqFactory, func(r UpgradeReport) { report = r })
	})
	k.RunFor(100 * time.Millisecond)

	if report.Err != ErrModuleKilled || report.RolledBack {
		t.Fatalf("prepare fault must be fatal, got %+v", report)
	}
	if !a.Killed() {
		t.Fatal("module with a broken prepare was not killed")
	}
	if done != 4 {
		t.Fatalf("tasks lost: %d/4 completed under CFS", done)
	}
}

// TestQueuedUpgradesFailOnKill pins the queued-upgrade death path: when the
// module dies with upgrades waiting behind the in-flight one, every queued
// done callback fires exactly once with ErrModuleKilled — no upgrade
// resolves silently.
func TestQueuedUpgradesFailOnKill(t *testing.T) {
	k, a := newRig(t, func(env core.Env) core.Scheduler {
		return badPrepare{wfq.New(env, policyEnoki)}
	})
	for i := 0; i < 4; i++ {
		k.Spawn("w", policyEnoki, spin(10*time.Millisecond, 500*time.Microsecond))
	}
	var errs []error
	k.Engine().After(time.Millisecond, func() {
		// First upgrade starts the blackout and will die in prepare; the
		// other two queue behind it and must be failed by the kill.
		a.Upgrade(wfqFactory, func(r UpgradeReport) { errs = append(errs, r.Err) })
		a.Upgrade(wfqFactory, func(r UpgradeReport) { errs = append(errs, r.Err) })
		a.Upgrade(wfqFactory, func(r UpgradeReport) { errs = append(errs, r.Err) })
	})
	k.RunFor(100 * time.Millisecond)

	if len(errs) != 3 {
		t.Fatalf("%d of 3 upgrade callbacks fired", len(errs))
	}
	for i, err := range errs {
		if err != ErrModuleKilled {
			t.Fatalf("upgrade %d resolved with %v, want ErrModuleKilled", i, err)
		}
	}
	// A post-kill request is refused synchronously, not queued.
	if err := a.Upgrade(wfqFactory, nil); err != ErrModuleKilled {
		t.Fatalf("Upgrade after kill = %v, want ErrModuleKilled", err)
	}
}

// TestRollbackUnderRepeatedTransferPanics hammers the transaction: five
// consecutive faulty upgrades against a loaded module, each rolled back,
// zero tasks lost, module still the original version and still alive.
func TestRollbackUnderRepeatedTransferPanics(t *testing.T) {
	k, a := newRig(t, wfqFactory)
	done := 0
	for i := 0; i < 12; i++ {
		k.Spawn("w", policyEnoki, spin(30*time.Millisecond, 500*time.Microsecond),
			kernel.WithExitObserver(func() { done++ }))
		k.Spawn("s", policyEnoki, sleeper(20, 100*time.Microsecond, 200*time.Microsecond),
			kernel.WithExitObserver(func() { done++ }))
	}
	oldSched := a.Scheduler()
	rollbacks := 0
	for i := 0; i < 5; i++ {
		k.Engine().After(time.Duration(i+1)*2*time.Millisecond, func() {
			a.Upgrade(faultyFactory, func(r UpgradeReport) {
				if r.RolledBack {
					rollbacks++
				}
			})
		})
	}
	k.RunFor(300 * time.Millisecond)

	if rollbacks != 5 {
		t.Fatalf("%d/5 faulty upgrades rolled back", rollbacks)
	}
	if a.Killed() {
		t.Fatalf("module killed: %+v", a.Failure())
	}
	if a.Scheduler() != oldSched {
		t.Fatal("module pointer drifted across rollbacks")
	}
	if done != 24 {
		t.Fatalf("tasks lost: %d/24 completed", done)
	}
	if k.NumTasks() != 0 {
		t.Fatalf("leaked tasks: %d", k.NumTasks())
	}
}

// TestRollbackAfterFlushFaultDeliversOnce faults the new module inside the
// commit flush: 16 FIFO sleepers block during a long blackout, and the new
// version panics on the second deferred task_wakeup, after the first reached
// it. The old module must resume from state its successor never touched and
// receive the whole backlog once: no stale token is picked (pnt_err) and no
// task starves into a watchdog kill.
func TestRollbackAfterFlushFaultDeliversOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UpgradeBase = 300 * time.Microsecond
	k, a := faultRig(cfg, fifoFactory)
	done := 0
	for i := 0; i < 16; i++ {
		k.Spawn("s", policyEnoki, sleeper(40, 50*time.Microsecond, 100*time.Microsecond),
			kernel.WithExitObserver(func() { done++ }))
	}
	var report UpgradeReport
	k.Engine().After(time.Millisecond, func() {
		a.Upgrade(func(env core.Env) core.Scheduler {
			return &schedtest.Injector{Scheduler: fifo.New(env, policyEnoki), PanicSite: core.MsgTaskWakeup, PanicAt: 1}
		}, func(r UpgradeReport) { report = r })
	})
	k.RunFor(100 * time.Millisecond)

	if !report.RolledBack || report.Err != nil {
		t.Fatalf("flush fault must roll back: %+v", report)
	}
	if report.Fault == nil || report.Fault.MsgKind != core.MsgTaskWakeup {
		t.Fatalf("fault = %+v, want a panic in task_wakeup", report.Fault)
	}
	if a.Killed() {
		t.Fatalf("module killed after rollback: %+v", a.Failure())
	}
	if st := a.Stats(); st.PntErrs != 0 {
		t.Fatalf("backlog redelivered onto state the new module changed: %d pnt_errs", st.PntErrs)
	}
	if done != 16 {
		t.Fatalf("tasks lost: %d/16 completed", done)
	}
}
