package enokic

import (
	"fmt"
	"time"

	"enoki/internal/core"
)

// UpgradeReport describes one live upgrade (§3.2, evaluated in §5.7).
type UpgradeReport struct {
	// Blackout is the simulated service interruption: the window during
	// which the module RW-lock is held in write mode and schedule
	// operations fall through to lower classes or idle.
	Blackout time.Duration
	// WallSwap is host wall-clock time spent in prepare + init + pointer
	// swap, the actual Go work of the upgrade.
	WallSwap time.Duration
	// DeferredDelivered is how many notifications queued up behind the
	// write lock and were delivered to the module that ended up running —
	// the new one on success, the restored old one after a rollback.
	DeferredDelivered int
	// RolledBack reports that the new module faulted during the swap and
	// the framework restored the old module, whose state the transfer
	// copied rather than handed over (Config.UpgradeRollback) — the class
	// kept running the old version and no task was lost.
	RolledBack bool
	// Fault is the contained module failure that aborted the swap: set on
	// rollback and on fatal aborts, nil on a clean upgrade.
	Fault *core.ModuleFault
	// Err is the terminal outcome: nil while the module is still serving
	// (clean upgrade or rollback), ErrModuleKilled when the upgrade died
	// with the module — killed mid-blackout, an unrecoverable fault in the
	// old module's prepare, a swap fault with rollback disabled, or a
	// queued upgrade orphaned by a kill.
	Err error
}

// pendingUpgrade is an upgrade requested while another was in flight; it
// starts once the blackout ahead of it completes.
type pendingUpgrade struct {
	version string
	factory func(core.Env) core.Scheduler
	done    func(UpgradeReport)
}

// Upgrade replaces the running module with a new version built by factory,
// transferring state through reregister_prepare/reregister_init. It models
// the paper's quiesce protocol: a per-module read-write lock is taken in
// write mode, in-flight calls drain (modelled as UpgradeBase +
// UpgradePerCPU×cores of blackout), state transfers, the dispatch pointer
// swaps, and deferred calls proceed against the new module.
//
// With Config.UpgradeRollback (the default) the swap is transactional:
// prepare exports a copy of the old module's state (core.Scheduler's
// contract), so a new module that panics while being built, initialised, or
// fed the deferred backlog is discarded — the old module resumes from its
// untouched state, the whole backlog is delivered to it, and done reports
// RolledBack with the contained fault.
// Only a fault in the old module's own prepare (nothing healthy left to
// restore) or a mid-swap kill remains fatal.
//
// An Upgrade requested while another is in flight queues behind it — the
// write lock serialises upgraders the same way it serialises them against
// schedule operations — and runs (with its own blackout and done callback)
// once the earlier swap completes. If the module is killed while upgrades
// are queued, each queued done fires once with Err = ErrModuleKilled.
//
// Upgrade must be called from simulation context (inside an event or before
// Run); done fires when the upgrade completes or dies. It returns
// ErrModuleKilled when the fault layer has already killed the module (done
// never fires); a queued or started upgrade returns nil.
func (a *Adapter) Upgrade(factory func(core.Env) core.Scheduler, done func(UpgradeReport)) error {
	return a.UpgradeTo(a.version, factory, done)
}

// UpgradeTo is Upgrade with version lineage: when the swap commits, the
// adapter's module version becomes version and the replaced (version,
// factory) pair is remembered as the rollback target. A transactional
// rollback or a fatal abort leaves the lineage untouched — the old module
// kept serving, so the old version is still the truth. This is the
// cluster-drivable form of the upgrade action: a fleet rollout upgrades
// every shard with UpgradeTo and, on a halted wave, restores the previous
// generation with Rollback.
func (a *Adapter) UpgradeTo(version string, factory func(core.Env) core.Scheduler, done func(UpgradeReport)) error {
	if a.killed {
		return ErrModuleKilled
	}
	if a.upgrading {
		a.pendingUpgrades = append(a.pendingUpgrades, pendingUpgrade{version, factory, done})
		return nil
	}
	a.startUpgrade(version, factory, done)
	return nil
}

// Version returns the name of the module generation currently serving:
// InitialVersion after Load, the committed UpgradeTo name after an upgrade
// (unchanged by a rolled-back or aborted swap).
func (a *Adapter) Version() string { return a.version }

// Rollback re-upgrades to the module generation the last committed
// UpgradeTo replaced, through the same transactional quiesce/transfer path
// as any upgrade — a rollback is just an upgrade whose target is the
// previous version's factory. It returns ErrNoPreviousVersion when no
// upgrade has committed and ErrModuleKilled when the module is dead.
func (a *Adapter) Rollback(done func(UpgradeReport)) error {
	if a.killed {
		return ErrModuleKilled
	}
	if a.prevFactory == nil {
		return ErrNoPreviousVersion
	}
	return a.UpgradeTo(a.prevVersion, a.prevFactory, done)
}

func (a *Adapter) startUpgrade(version string, factory func(core.Env) core.Scheduler, done func(UpgradeReport)) {
	a.upgrading = true
	a.stats.Upgrades++
	blackout := a.cfg.UpgradeBase + time.Duration(a.k.NumCPUs())*a.cfg.UpgradePerCPU
	a.k.Engine().After(blackout, func() { a.finishUpgrade(version, factory, done, blackout) })
}

// finishUpgrade runs at the end of the blackout: snapshot, build, commit.
// Every module crossing is panic-contained; which phase faulted decides
// whether the transaction can roll back.
func (a *Adapter) finishUpgrade(version string, factory func(core.Env) core.Scheduler, done func(UpgradeReport), blackout time.Duration) {
	if a.killed {
		// The module died during the blackout: the swap is moot. killModule
		// already failed any queued upgraders; the in-flight one learns the
		// same way instead of silently never completing.
		a.upgrading = false
		if done != nil {
			done(UpgradeReport{Blackout: blackout, Err: ErrModuleKilled})
		}
		return
	}
	wallStart := time.Now()
	old := a.sched

	// Phase 1 — snapshot. The old module exports a copy of its state, so
	// its own state is the rollback undo log. A panic here means the OLD
	// version is already broken — there is no healthy module to restore —
	// so the fault layer takes over.
	var in *core.TransferIn
	if fault := core.SafeCall(func() {
		if out := old.ReregisterPrepare(); out != nil {
			in = &core.TransferIn{State: out.State}
		}
	}); fault != nil {
		a.failUpgrade(done, UpgradeReport{
			Blackout: blackout, WallSwap: time.Since(wallStart), Fault: fault,
		}, fault)
		return
	}

	// Phase 2 — build and initialise the NEW module. Faults here (factory
	// or init panic, policy lie) are the new version's bugs: with rollback
	// enabled the old module keeps serving, so a bad upgrade is an aborted
	// transaction, not an outage.
	var next core.Scheduler
	fault := core.SafeCall(func() {
		next = factory(a.env)
		if got := next.GetPolicy(); got != a.policy {
			panic(fmt.Sprintf("enokic: upgraded module changed policy id (%d, loaded under %d)", got, a.policy))
		}
		next.ReregisterInit(in)
	})
	if fault != nil {
		a.abortSwap(old, nil, done, blackout, fault, wallStart)
		return
	}

	// Phase 3 — commit: swap the dispatch pointer and flush the deferred
	// backlog into the new module. A fault mid-flush also rolls back; the
	// old module's state predates every deferred message, so it must see
	// the WHOLE backlog — nothing is lost, nothing applied twice.
	a.sched = next
	a.upgrading = false
	queued := a.deferred
	a.deferred = nil
	flushed, flushFault := a.flushDeferred(queued)
	if a.killed {
		// A queue lie inside the flush tripped the kill path: the module is
		// gone regardless of which version lied, nothing to roll back.
		a.recycleDeferred(queued)
		if done != nil {
			done(UpgradeReport{
				Blackout: blackout, WallSwap: time.Since(wallStart),
				DeferredDelivered: flushed, Fault: flushFault, Err: ErrModuleKilled,
			})
		}
		return
	}
	if flushFault != nil {
		a.abortSwap(old, queued, done, blackout, flushFault, wallStart)
		return
	}
	// The transaction is committed: the new module generation is serving.
	// Record the lineage — the replaced pair is what Rollback restores.
	a.prevVersion, a.prevFactory = a.version, a.factory
	a.version, a.factory = version, factory
	a.recycleDeferred(queued)
	a.settleUpgrade(done, UpgradeReport{
		Blackout: blackout, WallSwap: time.Since(wallStart),
		DeferredDelivered: flushed,
	})
}

// abortSwap rolls a faulted swap back to the old module — or, with rollback
// disabled, escalates to the kill path. redeliver is the deferred backlog to
// deliver to the old module (nil when the fault predates the commit flush,
// in which case a.deferred still holds it).
func (a *Adapter) abortSwap(old core.Scheduler, redeliver []*core.Message, done func(UpgradeReport), blackout time.Duration, fault *core.ModuleFault, wallStart time.Time) {
	report := UpgradeReport{Blackout: blackout, Fault: fault}
	if !a.cfg.UpgradeRollback {
		a.recycleDeferred(redeliver)
		report.WallSwap = time.Since(wallStart)
		a.failUpgrade(done, report, fault)
		return
	}
	a.sched = old
	a.upgrading = false
	if redeliver == nil {
		redeliver = a.deferred
		a.deferred = nil
	}
	flushed, rf := a.flushDeferred(redeliver)
	a.recycleDeferred(redeliver)
	report.WallSwap, report.DeferredDelivered = time.Since(wallStart), flushed
	switch {
	case rf != nil:
		// The old module faulted on messages it was always going to
		// receive: not an upgrade problem, a dead module.
		a.failUpgrade(done, report, rf)
	case a.killed: // queue lie during redelivery
		report.Err = ErrModuleKilled
		if done != nil {
			done(report)
		}
	default:
		report.RolledBack = true
		a.settleUpgrade(done, report)
	}
}

// failUpgrade is the fatal exit: trip the fault layer (idempotent) and tell
// the requester the upgrade died with the module.
func (a *Adapter) failUpgrade(done func(UpgradeReport), report UpgradeReport, fault *core.ModuleFault) {
	a.upgrading = false
	a.trip(*fault, 0)
	report.Err = ErrModuleKilled
	if done != nil {
		done(report)
	}
}

// flushDeferred delivers the queued backlog to the current module, stopping
// at the first contained fault or mid-flush kill. Messages are NOT recycled
// here: the caller owns them until the transaction resolves, because a
// rollback redelivers the very same backlog (live Schedulable tokens still
// attached) to the restored module.
//
// Messages whose proof token was superseded while they waited out the
// blackout are dropped, not delivered: a task can be preempted, migrated,
// and woken again all inside one blackout, and each crossing issues a fresh
// generation. Only the last message per task carries the live proof —
// delivering the earlier ones would plant queue entries the module can never
// redeem (every pick of one costs a pick error and modules legitimately
// re-push errored tokens, so a single zombie entry loops until the budget
// kills an otherwise healthy module).
func (a *Adapter) flushDeferred(queued []*core.Message) (int, *core.ModuleFault) {
	delivered := 0
	for _, m := range queued {
		if a.killed {
			return delivered, nil
		}
		if a.superseded(m) {
			continue
		}
		if f := a.deliver(m); f != nil {
			return delivered, f
		}
		delivered++
	}
	return delivered, nil
}

// superseded reports whether a deferred message's attached token was
// invalidated (task gone, or generation reissued) while it sat behind the
// upgrade blackout. Token-less notifications are never superseded: their
// ordering carries the state.
func (a *Adapter) superseded(m *core.Message) bool {
	tok := m.AttachedSched()
	if tok == nil {
		return false
	}
	ti := a.infoOfToken(tok)
	return ti == nil || tok.Gen() != ti.gen
}

// recycleDeferred returns a resolved backlog to the message pool.
func (a *Adapter) recycleDeferred(queued []*core.Message) {
	for _, m := range queued {
		a.putMsg(m)
	}
}

// settleUpgrade completes a transaction that left a live module serving
// (clean swap or rollback): wake every CPU out of the blackout, report, and
// start the next queued upgrade.
func (a *Adapter) settleUpgrade(done func(UpgradeReport), report UpgradeReport) {
	for i := range a.kickPending {
		a.kickPending[i] = false
	}
	for i := 0; i < a.k.NumCPUs(); i++ {
		a.k.Resched(i)
	}
	if done != nil {
		done(report)
	}
	if len(a.pendingUpgrades) > 0 && !a.killed {
		nextUp := a.pendingUpgrades[0]
		a.pendingUpgrades = a.pendingUpgrades[1:]
		a.startUpgrade(nextUp.version, nextUp.factory, nextUp.done)
	}
}

// kickAfterUpgrade notes that cpu asked for work during the blackout; the
// post-upgrade kick of all CPUs covers it, this just keeps a flag per CPU so
// the hot pick path stays cheap.
func (a *Adapter) kickAfterUpgrade(cpu int) {
	a.kickPending[cpu] = true
}
