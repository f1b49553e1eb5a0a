package enoki_test

import (
	"bytes"
	"fmt"
	"time"

	"enoki"
)

// Example demonstrates loading a shipped scheduler and running a task on
// it — the smallest complete use of the public API.
func Example() {
	sys := enoki.NewSystem()
	ad := sys.MustAttach(1, enoki.GoModule(
		func(env enoki.Env) enoki.Scheduler { return enoki.NewWFQScheduler(env, 1) }))
	sys.RegisterCFS(0)
	k := sys.Kernel()

	done := false
	remaining := 5 * time.Millisecond
	k.Spawn("hello", 1, enoki.BehaviorFunc(func(k *enoki.Kernel, t *enoki.Task) enoki.Action {
		if remaining <= 0 {
			done = true
			return enoki.Action{Op: enoki.OpExit}
		}
		remaining -= time.Millisecond
		return enoki.Action{Run: time.Millisecond, Op: enoki.OpContinue}
	}))
	k.RunFor(50 * time.Millisecond)

	fmt.Println("task finished:", done)
	fmt.Println("invalid picks caught:", ad.Stats().PntErrs)
	// Output:
	// task finished: true
	// invalid picks caught: 0
}

// ExampleAdapter_Upgrade shows a live upgrade: the module is replaced under
// load with a µs-scale blackout and no lost tasks.
func ExampleAdapter_Upgrade() {
	sys := enoki.NewSystem()
	ad := sys.MustAttach(1, enoki.GoModule(
		func(env enoki.Env) enoki.Scheduler { return enoki.NewWFQScheduler(env, 1) }))
	sys.RegisterCFS(0)
	k, eng := sys.Kernel(), sys.Engine()

	finished := 0
	for i := 0; i < 4; i++ {
		remaining := 10 * time.Millisecond
		k.Spawn("w", 1, enoki.BehaviorFunc(func(k *enoki.Kernel, t *enoki.Task) enoki.Action {
			if remaining <= 0 {
				finished++
				return enoki.Action{Op: enoki.OpExit}
			}
			remaining -= 500 * time.Microsecond
			return enoki.Action{Run: 500 * time.Microsecond, Op: enoki.OpContinue}
		}))
	}

	var blackout time.Duration
	eng.After(2*time.Millisecond, func() {
		ad.Upgrade(func(env enoki.Env) enoki.Scheduler {
			return enoki.NewWFQScheduler(env, 1) // version 2
		}, func(r enoki.UpgradeReport) { blackout = r.Blackout })
	})
	k.RunFor(100 * time.Millisecond)

	fmt.Println("tasks finished:", finished)
	fmt.Println("blackout:", blackout)
	// Output:
	// tasks finished: 4
	// blackout: 1.52µs
}

// ExampleReplay records a short run and replays the same scheduler code at
// userspace, validating every decision.
func ExampleReplay() {
	sys := enoki.NewSystem()
	ad := sys.MustAttach(1, enoki.GoModule(
		func(env enoki.Env) enoki.Scheduler { return enoki.NewWFQScheduler(env, 1) }))
	sys.RegisterCFS(0)
	k := sys.Kernel()

	var log bytes.Buffer
	rec := enoki.NewRecorder(k, &log, 0)
	ad.SetRecorder(rec)

	remaining := 2 * time.Millisecond
	k.Spawn("traced", 1, enoki.BehaviorFunc(func(k *enoki.Kernel, t *enoki.Task) enoki.Action {
		if remaining <= 0 {
			return enoki.Action{Op: enoki.OpExit}
		}
		remaining -= 200 * time.Microsecond
		return enoki.Action{Run: 200 * time.Microsecond, Op: enoki.OpSleep, SleepFor: 100 * time.Microsecond}
	}))
	k.RunFor(20 * time.Millisecond)
	rec.Close()

	res, err := enoki.Replay(bytes.NewReader(log.Bytes()),
		enoki.ReplayConfig{NumCPUs: 8},
		func(env enoki.Env) enoki.Scheduler { return enoki.NewWFQScheduler(env, 1) })
	if err != nil {
		panic(err)
	}
	fmt.Println("divergences:", len(res.Divergences))
	// Output:
	// divergences: 0
}

// ExampleAdapter_CreateHintQueue sends a userspace hint to the locality
// scheduler, co-locating two tasks.
func ExampleAdapter_CreateHintQueue() {
	sys := enoki.NewSystem()
	ad := sys.MustAttach(1, enoki.GoModule(
		func(env enoki.Env) enoki.Scheduler { return enoki.NewLocalityScheduler(env, 1) }))
	sys.RegisterCFS(0)
	k := sys.Kernel()

	mk := func() enoki.Behavior {
		n := 0
		return enoki.BehaviorFunc(func(k *enoki.Kernel, t *enoki.Task) enoki.Action {
			n++
			if n > 100 {
				return enoki.Action{Op: enoki.OpExit}
			}
			return enoki.Action{Run: 20 * time.Microsecond, Op: enoki.OpSleep, SleepFor: 80 * time.Microsecond}
		})
	}
	a := k.Spawn("a", 1, mk())
	b := k.Spawn("b", 1, mk())

	q := ad.CreateHintQueue(16)
	q.Send(enoki.LocalityHint{PID: a.PID(), Locality: 42})
	q.Send(enoki.LocalityHint{PID: b.PID(), Locality: 42})
	k.RunFor(5 * time.Millisecond)

	fmt.Println("co-located:", a.CPU() == b.CPU())
	// Output:
	// co-located: true
}
