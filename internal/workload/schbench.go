package workload

import (
	"time"

	"enoki/internal/arachne"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/sched/locality"
	"enoki/internal/stats"
)

// SchbenchConfig describes a schbench run: MessageThreads message threads,
// each paired with WorkersPerMsg workers; every round the message thread
// wakes its workers, the workers think, respond, and sleep. The benchmark
// reports worker wakeup latency (wake posted → worker running).
type SchbenchConfig struct {
	Policy         int
	MessageThreads int
	WorkersPerMsg  int
	Warmup         time.Duration
	Duration       time.Duration
	// WorkerBurst is the mean per-round worker think time (uniform
	// ±50%); schbench's default message/worker loop lands near 100 µs.
	WorkerBurst time.Duration
	// MsgWork is the message thread's per-round bookkeeping.
	MsgWork time.Duration
	// RoundPause, when set, makes the message thread sleep between
	// rounds (the Table 6 variant paces rounds instead of saturating).
	RoundPause time.Duration
	Seed       uint64

	// OneCore pins every thread to CPU 0 (the Table 6 cgroup baseline).
	OneCore bool
	// Hints, when non-nil, sends locality co-location hints: each
	// message thread and its workers form one group (Table 6 "Hints").
	Hints *enokic.UserQueue
}

// SchbenchResult is the wakeup-latency distribution.
type SchbenchResult struct {
	P50, P99, Mean time.Duration
	Samples        uint64
}

func (c *SchbenchConfig) defaults() {
	if c.WorkerBurst == 0 {
		c.WorkerBurst = 100 * time.Microsecond
	}
	if c.MsgWork == 0 {
		c.MsgWork = 20 * time.Microsecond
	}
	if c.Warmup == 0 {
		c.Warmup = 5 * time.Second
	}
	if c.Duration == 0 {
		c.Duration = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 0x5cb
	}
}

// schGroup is one message thread plus its workers. The round counter plus
// futex-style rechecks make the protocol immune to wakes racing with
// in-flight blocks.
type schGroup struct {
	msg       *kernel.Task
	wakeMsg   []*kernel.Task // {msg}, the last responder's wake list
	workers   []*kernel.Task
	round     int
	responded int
	ready     bool
}

// RunSchbench executes the benchmark on kernel k and returns worker wakeup
// latencies.
func RunSchbench(k *kernel.Kernel, cfg SchbenchConfig) SchbenchResult {
	cfg.defaults()
	rng := ktime.NewRand(cfg.Seed)
	var hist stats.Histogram
	warmupEnd := k.Now().Add(cfg.Warmup)

	var opts []kernel.SpawnOption
	if cfg.OneCore {
		opts = append(opts, kernel.WithAffinity(kernel.SingleCPU(0)))
	}

	for g := 0; g < cfg.MessageThreads; g++ {
		grp := &schGroup{}
		for w := 0; w < cfg.WorkersPerMsg; w++ {
			grp := grp
			burst := cfg.WorkerBurst
			seenRound := 0
			thinking := false
			newRound := func() bool { return grp.round != seenRound }
			behavior := kernel.BehaviorFunc(func(k *kernel.Kernel, t *kernel.Task) kernel.Action {
				if thinking {
					// Think segment done: respond.
					thinking = false
					grp.responded++
					var wake []*kernel.Task
					if grp.ready && grp.responded >= len(grp.workers) {
						wake = grp.wakeMsg
					}
					if grp.round != seenRound {
						// Next round already started; run it.
						seenRound = grp.round
						thinking = true
						return kernel.Action{
							Run:  rng.UniformDuration(burst/2, burst+burst/2),
							Wake: wake, Op: kernel.OpContinue,
						}
					}
					return kernel.Action{Wake: wake, Op: kernel.OpBlock, Recheck: newRound}
				}
				if grp.round == seenRound {
					// Spurious wake.
					return kernel.Action{Op: kernel.OpBlock, Recheck: newRound}
				}
				seenRound = grp.round
				thinking = true
				return kernel.Action{
					Run: rng.UniformDuration(burst/2, burst+burst/2),
					Op:  kernel.OpContinue,
				}
			})
			wopts := append([]kernel.SpawnOption{
				kernel.WithWakeObserver(func(lat time.Duration) {
					if k.Now().After(warmupEnd) {
						hist.Record(lat)
					}
				}),
			}, opts...)
			worker := k.Spawn("schbench-worker", cfg.Policy, behavior, wopts...)
			grp.workers = append(grp.workers, worker)
		}
		first := true
		dispatched := false
		started := func() bool { return grp.ready }
		allResponded := func() bool { return grp.responded >= len(grp.workers) }
		msgBehavior := kernel.BehaviorFunc(func(k *kernel.Kernel, t *kernel.Task) kernel.Action {
			if first {
				first = false
				// Wait for the start kick.
				return kernel.Action{Op: kernel.OpBlock, Recheck: started}
			}
			if dispatched {
				// Round dispatched; sleep until all workers respond.
				dispatched = false
				return kernel.Action{Op: kernel.OpBlock, Recheck: allResponded}
			}
			if cfg.RoundPause > 0 && grp.responded >= len(grp.workers) {
				// Paced mode: breathe between rounds.
				grp.responded = -1 << 20 // consume the round marker
				return kernel.Action{Op: kernel.OpSleep, SleepFor: cfg.RoundPause}
			}
			dispatched = true
			grp.responded = 0
			grp.round++
			return kernel.Action{Run: cfg.MsgWork, Wake: grp.workers, Op: kernel.OpContinue}
		})
		grp.msg = k.Spawn("schbench-msg", cfg.Policy, msgBehavior, opts...)
		grp.wakeMsg = []*kernel.Task{grp.msg}
		if cfg.Hints != nil {
			group := g + 1
			cfg.Hints.Send(locality.HintMsg{PID: grp.msg.PID(), Locality: group})
			for _, w := range grp.workers {
				cfg.Hints.Send(locality.HintMsg{PID: w.PID(), Locality: group})
			}
		}
		// Kick off the first round once the workers' initial runs have
		// drained.
		k.Engine().After(time.Millisecond, func() {
			grp.ready = true
			grp.responded = 0
			k.Wake(grp.msg)
		})
	}

	k.RunFor(cfg.Warmup + cfg.Duration)
	return SchbenchResult{
		P50:     hist.Quantile(0.50),
		P99:     hist.Quantile(0.99),
		Mean:    hist.Mean(),
		Samples: hist.Count(),
	}
}

// RunArachneSchbench reproduces the schbench message/worker pattern on
// Arachne user threads: the "message" continuation dispatches worker user
// threads and the measured latency is submit→dispatch, which never touches
// the kernel (the ~1 µs rows of Table 4).
func RunArachneSchbench(k *kernel.Kernel, rt *arachne.Runtime, cfg SchbenchConfig) SchbenchResult {
	cfg.defaults()
	rng := ktime.NewRand(cfg.Seed)
	var hist stats.Histogram
	k.RunFor(2 * time.Millisecond)
	warmupEnd := k.Now().Add(cfg.Warmup / 10) // user-level warms up fast
	end := warmupEnd.Add(cfg.Duration / 10)

	for g := 0; g < cfg.MessageThreads; g++ {
		// A group has one round in flight: the next is submitted only
		// once every worker of this one is done, so the round's state and
		// the worker callbacks are built once and shared by every round.
		var submitted ktime.Time
		pendingWorkers := 0
		var round func()
		start := func() {
			if k.Now().After(warmupEnd) {
				hist.Record(k.Now().Sub(submitted))
			}
		}
		done := func() {
			pendingWorkers--
			if pendingWorkers == 0 {
				// Message thread runs again next round.
				rt.Submit(arachne.UserThread{Service: cfg.MsgWork, Done: round})
			}
		}
		round = func() {
			if k.Now().After(end) {
				return
			}
			submitted = k.Now()
			pendingWorkers = cfg.WorkersPerMsg
			for w := 0; w < cfg.WorkersPerMsg; w++ {
				think := rng.UniformDuration(cfg.WorkerBurst/2, cfg.WorkerBurst*3/2)
				rt.Submit(arachne.UserThread{Service: think, Start: start, Done: done})
			}
		}
		k.Engine().After(time.Millisecond, round)
	}
	k.RunFor(cfg.Warmup/10 + cfg.Duration/10 + 10*time.Millisecond)
	return SchbenchResult{
		P50:     hist.Quantile(0.50),
		P99:     hist.Quantile(0.99),
		Mean:    hist.Mean(),
		Samples: hist.Count(),
	}
}
