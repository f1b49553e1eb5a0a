package enokic

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"enoki/internal/core"
	"enoki/internal/kernel"
	"enoki/internal/sched/fifo"
)

// TestUpgradeToVersionLineage: a committed UpgradeTo renames the serving
// generation and remembers the replaced one; Rollback restores it through
// the same transactional path, and a second Rollback rolls forward again
// (the lineage always holds the last replaced pair).
func TestUpgradeToVersionLineage(t *testing.T) {
	k, a := newRig(t, wfqFactory)
	if a.Version() != InitialVersion {
		t.Fatalf("fresh adapter version = %q, want %q", a.Version(), InitialVersion)
	}
	done := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", policyEnoki, spin(10*time.Millisecond, 500*time.Microsecond),
			kernel.WithExitObserver(func() { done++ }))
	}

	step := func(what string, act func(func(UpgradeReport)) error) UpgradeReport {
		t.Helper()
		var rep UpgradeReport
		resolved := false
		k.Engine().After(time.Millisecond, func() {
			if err := act(func(r UpgradeReport) { rep = r; resolved = true }); err != nil {
				t.Errorf("%s: %v", what, err)
			}
		})
		k.RunFor(20 * time.Millisecond)
		if !resolved {
			t.Fatalf("%s never resolved", what)
		}
		if rep.Err != nil || rep.RolledBack {
			t.Fatalf("%s not clean: %+v", what, rep)
		}
		return rep
	}

	step("upgrade to v2", func(d func(UpgradeReport)) error { return a.UpgradeTo("v2", wfqFactory, d) })
	if a.Version() != "v2" {
		t.Fatalf("after UpgradeTo: version = %q, want v2", a.Version())
	}
	step("rollback to v0", func(d func(UpgradeReport)) error { return a.Rollback(d) })
	if a.Version() != InitialVersion {
		t.Fatalf("after Rollback: version = %q, want %q", a.Version(), InitialVersion)
	}
	step("roll forward to v2", func(d func(UpgradeReport)) error { return a.Rollback(d) })
	if a.Version() != "v2" {
		t.Fatalf("after second Rollback: version = %q, want v2", a.Version())
	}
	k.RunFor(100 * time.Millisecond)
	if done != 4 {
		t.Fatalf("tasks lost across version flips: %d/4 completed", done)
	}
}

// TestUpgradeToRolledBackKeepsVersion: a faulty UpgradeTo whose transaction
// rolls back leaves both the serving version and the rollback lineage
// untouched — the old generation never stopped serving, so there is still
// nothing to roll back to.
func TestUpgradeToRolledBackKeepsVersion(t *testing.T) {
	k, a := newRig(t, wfqFactory)
	k.Spawn("w", policyEnoki, spin(5*time.Millisecond, 500*time.Microsecond))
	var rep UpgradeReport
	k.Engine().After(time.Millisecond, func() {
		a.UpgradeTo("v2", faultyFactory, func(r UpgradeReport) { rep = r })
	})
	k.RunFor(100 * time.Millisecond)
	if !rep.RolledBack {
		t.Fatalf("faulty upgrade did not roll back: %+v", rep)
	}
	if a.Version() != InitialVersion {
		t.Fatalf("rolled-back upgrade changed version to %q", a.Version())
	}
	if err := a.Rollback(nil); !errors.Is(err, ErrNoPreviousVersion) {
		t.Fatalf("Rollback after an aborted-only history = %v, want ErrNoPreviousVersion", err)
	}
}

// TestRollbackWithoutHistory: Rollback on a freshly loaded adapter is a
// typed refusal, not a no-op or a panic.
func TestRollbackWithoutHistory(t *testing.T) {
	_, a := newRig(t, wfqFactory)
	if err := a.Rollback(nil); !errors.Is(err, ErrNoPreviousVersion) {
		t.Fatalf("Rollback without history = %v, want ErrNoPreviousVersion", err)
	}
}

// TestUpgradeToTransfersQueuedRing: v0 → v1 with a backlog waiting. The
// FIFO module's per-CPU ring rides the state capsule by value — wrapped,
// as it is after any pops — and the new generation serves the backlog in the
// order the old one queued it.
func TestUpgradeToTransfersQueuedRing(t *testing.T) {
	k, a := newRig(t, fifoFactory)
	var order []int
	spawn := func(i int, run time.Duration) {
		k.Spawn("w", policyEnoki, spin(run, run), kernel.WithAffinity(kernel.SingleCPU(0)),
			kernel.WithExitObserver(func() { order = append(order, i) }))
	}
	// Three short tasks come and go first, so the ring's head has moved off
	// slot 0 by the time the backlog that crosses the upgrade queues up.
	for i := 0; i < 3; i++ {
		spawn(i, 10*time.Microsecond)
	}
	k.RunFor(time.Millisecond)
	for i := 3; i < 9; i++ {
		spawn(i, time.Millisecond)
	}
	old := a.Scheduler().(*fifo.Sched)
	var rep UpgradeReport
	k.Engine().After(500*time.Microsecond, func() {
		if n := old.QueueLen(0); n != 5 {
			t.Errorf("backlog at upgrade = %d, want 5 queued behind the running task", n)
		}
		a.UpgradeTo("v1", fifoFactory, func(r UpgradeReport) { rep = r })
	})
	k.RunFor(20 * time.Millisecond)

	if rep.Err != nil || rep.RolledBack || a.Version() != "v1" || a.Scheduler() == core.Scheduler(old) {
		t.Fatalf("upgrade did not commit: %+v, version %q", rep, a.Version())
	}
	// Task 3 was running through the blackout; the resched that ends it
	// preempts 3 to the back, behind the backlog the ring carried over.
	if want := []int{0, 1, 2, 4, 5, 6, 7, 8, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("completion order %v, want %v: the transferred ring lost its order", order, want)
	}
	if n := a.Stats().PntErrs; n != 0 {
		t.Fatalf("%d pick errors across the upgrade", n)
	}
}
