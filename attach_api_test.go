package enoki_test

import (
	"errors"
	"testing"
	"time"

	"enoki"
)

// TestAttachQuickstart runs the README three-tier setup: the same machine
// carries a module-tier WFQ (policy 2), a verified-tier dual-queue (policy
// 1), and builtin CFS (policy 0), all attached through System.Attach.
func TestAttachQuickstart(t *testing.T) {
	sys := enoki.NewSystem(enoki.WithMachine(enoki.Machine8()))
	k := sys.Kernel()

	ad, err := sys.Attach(2, enoki.GoModule(
		func(env enoki.Env) enoki.Scheduler { return enoki.NewWFQScheduler(env, 2) }))
	if err != nil {
		t.Fatalf("Attach(GoModule): %v", err)
	}
	if ad == nil {
		t.Fatal("GoModule attach returned a nil Adapter")
	}
	if _, err := sys.Attach(1, enoki.VerifiedProgram(enoki.VDualQueueProgram())); err != nil {
		t.Fatalf("Attach(VerifiedProgram): %v", err)
	}
	if _, err := sys.Attach(0, enoki.BuiltinClass(enoki.NewCFS(k))); err != nil {
		t.Fatalf("Attach(BuiltinClass): %v", err)
	}

	vc := sys.VerifiedClass(1)
	if vc == nil {
		t.Fatal("VerifiedClass(1) = nil after a verified attach")
	}
	if sys.VerifiedClass(2) != nil {
		t.Fatal("VerifiedClass(2) non-nil for a module policy")
	}

	done := 0
	for policy := 0; policy <= 2; policy++ {
		for i := 0; i < 3; i++ {
			remaining := 2 * time.Millisecond
			k.Spawn("t", policy, enoki.BehaviorFunc(func(*enoki.Kernel, *enoki.Task) enoki.Action {
				if remaining <= 0 {
					done++
					return enoki.Action{Op: enoki.OpExit}
				}
				run := 200 * time.Microsecond
				remaining -= run
				return enoki.Action{Run: run, Op: enoki.OpContinue}
			}))
		}
	}
	sys.RunUntilIdle()
	if done != 9 {
		t.Fatalf("done = %d, want 9 (3 tasks per tier)", done)
	}
	if vc.Stats().Picks == 0 {
		t.Fatal("verified class never picked a task")
	}
	if got := ad.Stats().Messages; got == 0 {
		t.Fatal("module adapter never crossed")
	}
}

// TestAttachTierTags pins the PolicySource tier names the metrics layer
// keys on.
func TestAttachTierTags(t *testing.T) {
	if g := enoki.GoModule(nil).Tier(); g != "module" {
		t.Fatalf("GoModule tier = %q", g)
	}
	if g := enoki.VerifiedProgram(nil).Tier(); g != "verified" {
		t.Fatalf("VerifiedProgram tier = %q", g)
	}
	if g := enoki.BuiltinClass(nil).Tier(); g != "builtin" {
		t.Fatalf("BuiltinClass tier = %q", g)
	}
}

// TestAttachErrors pins the typed failures: duplicate policy ids across
// tiers, nil sources and payloads, attach after Close, builtin in sharded
// mode.
func TestAttachErrors(t *testing.T) {
	sys := enoki.NewSystem()
	k := sys.Kernel()
	if _, err := sys.Attach(1, enoki.VerifiedProgram(enoki.VFIFOProgram())); err != nil {
		t.Fatalf("first verified attach: %v", err)
	}
	if _, err := sys.Attach(1, enoki.GoModule(
		func(env enoki.Env) enoki.Scheduler { return enoki.NewWFQScheduler(env, 1) })); !errors.Is(err, enoki.ErrDuplicatePolicy) {
		t.Fatalf("module over verified id = %v, want ErrDuplicatePolicy", err)
	}
	if _, err := sys.Attach(1, enoki.VerifiedProgram(enoki.VFIFOProgram())); !errors.Is(err, enoki.ErrDuplicatePolicy) {
		t.Fatalf("verified over verified id = %v, want ErrDuplicatePolicy", err)
	}
	if _, err := sys.Attach(1, enoki.BuiltinClass(enoki.NewCFS(k))); !errors.Is(err, enoki.ErrDuplicatePolicy) {
		t.Fatalf("builtin over verified id = %v, want ErrDuplicatePolicy", err)
	}

	if _, err := sys.Attach(3, nil); err == nil {
		t.Fatal("Attach(nil source) succeeded")
	}
	if _, err := sys.Attach(3, enoki.VerifiedProgram(nil)); err == nil {
		t.Fatal("Attach(VerifiedProgram(nil)) succeeded")
	}
	if _, err := sys.Attach(3, enoki.GoModule(nil)); err == nil {
		t.Fatal("Attach(GoModule(nil)) succeeded")
	}
	if _, err := sys.Attach(3, enoki.BuiltinClass(nil)); err == nil {
		t.Fatal("Attach(BuiltinClass(nil)) succeeded")
	}

	// Unverifiable programs are rejected at attach time.
	bad := &enoki.VProgram{} // no queues, no code
	if _, err := sys.Attach(3, enoki.VerifiedProgram(bad)); err == nil {
		t.Fatal("Attach of an unverifiable program succeeded")
	}

	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := sys.Attach(4, enoki.VerifiedProgram(enoki.VFIFOProgram())); !errors.Is(err, enoki.ErrSystemClosed) {
		t.Fatalf("Attach after Close = %v, want ErrSystemClosed", err)
	}
}

// TestAttachSharded covers the sharded rules: module and verified sources
// attach once per shard; builtin sources are rejected.
func TestAttachSharded(t *testing.T) {
	sys := enoki.NewSystem(enoki.WithMachine(enoki.Machine80()), enoki.WithShards(0))
	defer sys.Close()

	if _, err := sys.Attach(1, enoki.VerifiedProgram(enoki.VFIFOProgram())); err != nil {
		t.Fatalf("sharded verified attach: %v", err)
	}
	if sys.VerifiedClass(1) == nil {
		t.Fatal("VerifiedClass(1) nil after sharded attach")
	}
	for i := 0; i < sys.NumShards(); i++ {
		if sys.ShardKernel(i).ClassByID(1) == nil {
			t.Fatalf("shard %d missing verified class", i)
		}
	}

	ad, err := sys.Attach(2, enoki.GoModule(
		func(env enoki.Env) enoki.Scheduler { return enoki.NewWFQScheduler(env, 2) }))
	if err != nil {
		t.Fatalf("sharded module attach: %v", err)
	}
	if ad == nil || len(sys.Adapters()) != sys.NumShards() {
		t.Fatalf("sharded module attach: %d adapters, want %d", len(sys.Adapters()), sys.NumShards())
	}

	if _, err := sys.Attach(0, enoki.BuiltinClass(enoki.NewCFS(sys.ShardKernel(0)))); err == nil {
		t.Fatal("sharded BuiltinClass attach succeeded; a Class binds to one kernel")
	}
}

// TestAttachVerifiedFault exercises the verified tier's fault road through
// the public API: a program dividing by the task's nice value traps on the
// first nice-0 enqueue, the class is killed, its tasks finish under the
// fallback CFS, and the failure is reported with the right trap.
func TestAttachVerifiedFault(t *testing.T) {
	src := `
queues shared=1 local=0
enqueue:
    ldf r2, nice
    ldi r3, 100
    div r3, r2      ; traps when nice == 0
    enq shared, 0
    ret
pick:
    trypop shared, 0
    ret
`
	prog, err := enoki.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if err := enoki.VerifyProgram(prog); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	sys := enoki.NewSystem()
	k := sys.Kernel()
	if _, err := sys.Attach(1, enoki.VerifiedProgram(prog)); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	sys.RegisterCFS(0)

	done := 0
	for i := 0; i < 4; i++ {
		remaining := time.Millisecond
		k.Spawn("w", 1, enoki.BehaviorFunc(func(*enoki.Kernel, *enoki.Task) enoki.Action {
			if remaining <= 0 {
				done++
				return enoki.Action{Op: enoki.OpExit}
			}
			remaining -= 100 * time.Microsecond
			return enoki.Action{Run: 100 * time.Microsecond, Op: enoki.OpContinue}
		}), enoki.WithNice(0))
	}
	sys.RunUntilIdle()

	vc := sys.VerifiedClass(1)
	if !vc.Killed() {
		t.Fatal("verified class survived a guaranteed div-zero")
	}
	if f := vc.Failure(); f == nil || f.Trap != enoki.TrapDivZero {
		t.Fatalf("failure = %+v, want TrapDivZero", vc.Failure())
	}
	if done != 4 {
		t.Fatalf("done = %d, want 4 (tasks rehomed to CFS finish)", done)
	}
}
