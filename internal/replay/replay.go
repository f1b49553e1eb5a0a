// Package replay runs recorded scheduler logs against the exact same module
// code at userspace (§3.4). It implements "a replacement version of
// libEnoki": messages are fed back through core.Dispatch in recorded order,
// one goroutine per recorded message named with the originating kernel
// thread; module locks are replaced with gating locks that admit threads in
// the recorded acquisition order; and every reply is validated against the
// recorded one, flagging divergences.
package replay

import (
	"fmt"
	"io"
	"sync"
	"time"

	"enoki/internal/core"
	"enoki/internal/gls"
	"enoki/internal/ktime"
	"enoki/internal/record"
)

// Result summarises a replay run.
type Result struct {
	// Messages is how many scheduler messages replayed.
	Messages int
	// LockOps is how many lock operations gated the replay.
	LockOps int
	// Divergences lists replies that differed from the recording
	// (truncated at 50).
	Divergences []string
	// Elapsed is host wall-clock time spent replaying.
	Elapsed time.Duration
	// ParseTime is host wall-clock spent loading and indexing the log.
	ParseTime time.Duration
}

// replayLock admits acquirers in the recorded order.
type replayLock struct {
	name  string
	mu    sync.Mutex
	cond  *sync.Cond
	order []int // thread ids, in recorded acquisition order
	next  int
	held  bool
}

func newReplayLock(name string) *replayLock {
	l := &replayLock{name: name}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Lock implements core.Locker: block until it is this thread's turn.
func (l *replayLock) Lock() {
	tid := gls.Get()
	l.mu.Lock()
	for l.held || (l.next < len(l.order) && l.order[l.next] != tid) {
		l.cond.Wait()
	}
	l.held = true
	if l.next < len(l.order) {
		l.next++
	}
	l.mu.Unlock()
}

// Unlock implements core.Locker.
func (l *replayLock) Unlock() {
	l.mu.Lock()
	l.held = false
	l.cond.Broadcast()
	l.mu.Unlock()
}

// env is the userspace replacement for the kernel environment: time comes
// from the recorded messages, timers and rescheds are outputs (ignored),
// locks gate on the recorded order.
type env struct {
	numCPUs int
	topo    *core.Topology
	locks   []*replayLock
	nlocks  int
	now     int64
	nowMu   sync.Mutex
	rand    *ktime.Rand
}

var _ core.Env = (*env)(nil)

func (e *env) Now() ktime.Time {
	e.nowMu.Lock()
	defer e.nowMu.Unlock()
	return ktime.Time(e.now)
}

func (e *env) setNow(t int64) {
	e.nowMu.Lock()
	if t > e.now {
		e.now = t
	}
	e.nowMu.Unlock()
}

func (e *env) NumCPUs() int           { return e.numCPUs }
func (e *env) SameNode(a, b int) bool { return e.topo.SameNode(a, b) }

// Topology implements core.Env: the topology the replay was configured with,
// or a flat single-domain view when the caller supplied none. Modules whose
// decisions depend on domain structure must be replayed with the recorded
// machine's topology to reproduce bit-identically.
func (e *env) Topology() *core.Topology { return e.topo }

func (e *env) ArmTimer(cpu int, d time.Duration) {}
func (e *env) Resched(cpu int)                   {}
func (e *env) Rand() *ktime.Rand                 { return e.rand }
func (e *env) NewMutex(name string) core.Locker {
	if e.nlocks < len(e.locks) {
		l := e.locks[e.nlocks]
		e.nlocks++
		if l.name != "" && l.name != name {
			// Locks must be created in the same order as recorded.
			panic(fmt.Sprintf("replay: lock %d created as %q, recorded as %q",
				e.nlocks-1, name, l.name))
		}
		return l
	}
	// A lock the recording never saw: ungated.
	e.nlocks++
	return newReplayLock(name)
}

// Config tunes a replay run.
type Config struct {
	// NumCPUs must match the recorded machine.
	NumCPUs int
	// Topology optionally supplies the recorded machine's scheduling
	// domains. Nil replays against a flat single-domain topology, which is
	// exact for modules that never consult domain structure.
	Topology *core.Topology
	// RandSeed must match the recorded module's stream.
	RandSeed uint64
	// MaxDivergences caps the report.
	MaxDivergences int
}

// Replay loads a record log from rd and replays it against a fresh module
// built by factory.
func Replay(rd io.Reader, cfg Config, factory func(core.Env) core.Scheduler) (*Result, error) {
	parseStart := time.Now()
	entries, err := record.Load(rd)
	if err != nil {
		return nil, fmt.Errorf("replay: loading log: %w", err)
	}
	return ReplayEntries(entries, cfg, factory, parseStart)
}

// ReplayEntries replays an already-loaded log.
func ReplayEntries(entries []record.Entry, cfg Config, factory func(core.Env) core.Scheduler, parseStart time.Time) (*Result, error) {
	if cfg.MaxDivergences == 0 {
		cfg.MaxDivergences = 50
	}
	if cfg.RandSeed == 0 {
		cfg.RandSeed = 0x5eed
	}
	res := &Result{}

	// Pass 1: per-lock acquisition orders, differentiated by lock id (the
	// analogue of the paper's lock address).
	var locks []*replayLock
	for _, e := range entries {
		if e.Lock == nil {
			continue
		}
		res.LockOps++
		for len(locks) <= e.Lock.LockID {
			locks = append(locks, newReplayLock(""))
		}
		l := locks[e.Lock.LockID]
		switch e.Lock.Op {
		case core.LockCreate:
			l.name = e.Lock.Name
		case core.LockAcquire:
			l.order = append(l.order, e.Lock.Thread)
		}
	}
	res.ParseTime = time.Since(parseStart)

	replayStart := time.Now()
	topo := cfg.Topology
	if topo == nil {
		topo = core.FlatTopology(cfg.NumCPUs)
	}
	renv := &env{numCPUs: cfg.NumCPUs, topo: topo, locks: locks, rand: ktime.NewRand(cfg.RandSeed)}
	sched := factory(renv)

	queues := make(map[int]*core.HintQueue)
	divMu := sync.Mutex{}
	diverge := func(format string, args ...any) {
		divMu.Lock()
		defer divMu.Unlock()
		if len(res.Divergences) < cfg.MaxDivergences {
			res.Divergences = append(res.Divergences, fmt.Sprintf(format, args...))
		}
	}

	// Pass 2: thread-per-message replay. Messages from the same kernel
	// thread chain sequentially (a kernel thread calls synchronously);
	// cross-thread interleaving is governed by the gating locks.
	var wg sync.WaitGroup
	prevOfThread := make(map[int]chan struct{})
	for _, e := range entries {
		if e.Msg == nil {
			continue
		}
		m := e.Msg
		res.Messages++
		prev := prevOfThread[m.Thread]
		done := make(chan struct{})
		prevOfThread[m.Thread] = done
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			if prev != nil {
				<-prev
			}
			gls.Set(m.Thread)
			defer gls.Clear()
			renv.setNow(m.Now)
			replayOne(sched, m, queues, diverge)
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(replayStart)
	return res, nil
}

// replayOne dispatches a single recorded message against the module and
// validates the reply.
func replayOne(sched core.Scheduler, m *core.Message, queues map[int]*core.HintQueue,
	diverge func(string, ...any)) {
	switch m.Kind {
	case core.MsgRegisterQueue:
		q := core.NewHintQueue(m.Count)
		id := sched.RegisterQueue(q)
		queues[id] = q
		if id != m.QueueID {
			diverge("seq %d: register_queue returned id %d, recorded %d", m.Seq, id, m.QueueID)
		}
		return
	case core.MsgRegisterRevQueue:
		sched.RegisterReverseQueue(core.NewRevQueue(m.Count))
		return
	case core.MsgUnregisterQueue:
		sched.UnregisterQueue(m.QueueID)
		return
	case core.MsgUnregisterRevQueue:
		sched.UnregisterRevQueue(m.QueueID)
		return
	case core.MsgHintPush:
		if q := queues[m.QueueID]; q != nil {
			q.Push(m.Hint)
		}
		return
	case core.MsgModuleFault:
		// The framework killed the module here; nothing to replay — the
		// log simply ends (or continues without this module's messages).
		return
	}

	cp := *m
	cp.RetSched, cp.RetCPU, cp.RetPID, cp.RetOK = nil, 0, 0, false
	core.Dispatch(sched, &cp)
	switch m.Kind {
	case core.MsgPickNextTask, core.MsgTaskDeparted, core.MsgMigrateTaskRQ:
		if !cp.RetSched.Equal(m.RetSched) {
			diverge("seq %d (%v): returned %+v, recorded %+v", m.Seq, m.Kind, cp.RetSched, m.RetSched)
		}
	case core.MsgSelectTaskRQ:
		if cp.RetCPU != m.RetCPU {
			diverge("seq %d (select_task_rq): returned cpu %d, recorded %d", m.Seq, cp.RetCPU, m.RetCPU)
		}
	case core.MsgBalance:
		if cp.RetOK != m.RetOK || cp.RetPID != m.RetPID {
			diverge("seq %d (balance): returned (%d,%v), recorded (%d,%v)",
				m.Seq, cp.RetPID, cp.RetOK, m.RetPID, m.RetOK)
		}
	}
}
