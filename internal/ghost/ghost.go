// Package ghost models the ghOSt framework (Humphries et al., SOSP '21),
// the baseline Enoki is evaluated against. GhOSt delegates scheduling
// policy to userspace agents: the kernel component only forwards state
// changes as asynchronous messages and applies previously committed
// transactions; every actual decision requires an agent to be scheduled and
// run.
//
// Two agent arrangements from the paper are provided:
//
//   - per-CPU FIFO: one agent per CPU that shares the CPU with the workload
//     it schedules — the source of the one-core pipe penalty in Table 3;
//   - SOL ("speed-of-light"): one global agent on a dedicated core,
//     latency-optimized at the price of burning that core (Fig 2c).
//
// Policies are pluggable (FIFO and a Shinjuku-style FCFS with µs preemption
// are provided) and run entirely in the agent, mirroring ghOSt's split of
// mechanism (kernel) and policy (userspace). Decisions are applied
// asynchronously and may be stale; the kernel side re-validates a committed
// transaction before running it.
package ghost

import (
	"fmt"
	"time"

	"enoki/internal/core"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
)

// Mode selects the agent arrangement.
type Mode int

// Agent arrangements.
const (
	// ModePerCPU runs one agent per CPU, sharing that CPU.
	ModePerCPU Mode = iota
	// ModeSOL runs one global agent on a dedicated core.
	ModeSOL
)

// Costs calibrates the ghOSt message path.
type Costs struct {
	// MsgPost is the kernel-side cost of posting one message to an agent
	// queue, charged per scheduler-class crossing.
	MsgPost time.Duration
	// AgentBase is the fixed agent cost per activation.
	AgentBase time.Duration
	// AgentPerMsg is the agent cost to consume one message.
	AgentPerMsg time.Duration
	// TxnCommit is the agent cost to commit one scheduling transaction.
	TxnCommit time.Duration
	// CommitApply is the kernel cost to validate and apply a committed
	// transaction at pick time.
	CommitApply time.Duration
	// SpinPoll is the SOL agent's idle poll granularity; messages wait
	// on average half of it.
	SpinPoll time.Duration
}

// DefaultCosts returns the calibrated ghOSt cost table.
func DefaultCosts() Costs {
	return Costs{
		MsgPost:     260 * time.Nanosecond,
		AgentBase:   600 * time.Nanosecond,
		AgentPerMsg: 800 * time.Nanosecond,
		TxnCommit:   900 * time.Nanosecond,
		CommitApply: 300 * time.Nanosecond,
		SpinPoll:    4000 * time.Nanosecond,
	}
}

// MsgKind identifies an agent message.
type MsgKind int

// Agent message kinds.
const (
	MNew MsgKind = iota + 1
	MWakeup
	MBlocked
	MDead
	MPreempt
	MYield
)

// AgentMsg is one asynchronous state-change notification.
type AgentMsg struct {
	Kind    MsgKind
	PID     int
	CPU     int
	Runtime time.Duration
	// Allowed is the task's affinity, sent with MNew only (nil on every
	// other kind): a policy keeps it from the task's first message.
	Allowed []int
}

// AgentPolicy is the userspace scheduling policy an agent runs.
type AgentPolicy interface {
	// Name labels the policy in experiment tables.
	Name() string
	// OnMessage consumes one notification.
	OnMessage(m AgentMsg)
	// NextFor returns the pid the policy wants on cpu, consuming the
	// decision; ok=false means nothing for that CPU.
	NextFor(cpu int) (pid int, ok bool)
	// Slice returns the preemption quantum, or 0 to run tasks until they
	// block.
	Slice() time.Duration
	// Pending returns how many tasks are waiting for CPUs (slicing a
	// running task is only useful when someone waits); while it is 0,
	// NextFor has nothing to return and is not asked.
	Pending() int
}

// Ghost is the kernel component: a scheduler class whose policy lives in
// agents.
type Ghost struct {
	k      *kernel.Kernel
	mode   Mode
	policy AgentPolicy
	costs  Costs

	agentCPU int // SOL: the dedicated core
	agents   []*kernel.Task
	loops    []agentLoop // by agent slot
	woken    []bool      // agent runnable flags, indexed by agent slot
	cpus     [][]int     // per agent slot: the CPUs it schedules

	// pending[slot] collects the messages posted to an agent; spare[slot]
	// is the buffer it drained last round, swapped in when it next drains,
	// so the two are reused and a post never regrows a fresh slice.
	pending [][]AgentMsg
	spare   [][]AgentMsg

	committed []int // per cpu, 0 = none
	currPID   []int // per cpu, running ghost task
	pickedAt  []ktime.Time

	tasks   map[int]*kernel.Task // runnable (queued) ghost tasks
	nqueued []int

	// rounds counts agent scheduling rounds that have run Next; see
	// AgentActivations.
	rounds uint64
	// StaleCommits counts committed transactions that failed validation.
	StaleCommits uint64
}

var _ kernel.Class = (*Ghost)(nil)

// New builds the ghOSt class. For ModeSOL, agentCPU is the dedicated core.
func New(k *kernel.Kernel, mode Mode, policy AgentPolicy, agentCPU int, costs Costs) *Ghost {
	n := k.NumCPUs()
	slots := n
	if mode == ModeSOL {
		slots = 1
	}
	g := &Ghost{
		k: k, mode: mode, policy: policy, costs: costs, agentCPU: agentCPU,
		agents:    make([]*kernel.Task, slots),
		loops:     make([]agentLoop, slots),
		woken:     make([]bool, slots),
		cpus:      make([][]int, slots),
		pending:   make([][]AgentMsg, slots),
		spare:     make([][]AgentMsg, slots),
		committed: make([]int, n),
		currPID:   make([]int, n),
		pickedAt:  make([]ktime.Time, n),
		tasks:     make(map[int]*kernel.Task),
		nqueued:   make([]int, n),
	}
	if mode == ModeSOL {
		for i := 0; i < n; i++ {
			if i != agentCPU {
				g.cpus[0] = append(g.cpus[0], i)
			}
		}
	} else {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
			g.cpus[i] = ids[i : i+1 : i+1]
		}
	}
	return g
}

// agentMarker tags agent tasks so class hooks can recognise them even while
// Spawn is still executing (before the agents slice is filled in).
type agentMarker struct{ slot int }

// Start spawns the agent tasks into this class under policyID. Call after
// registering the class.
func (g *Ghost) Start(policyID int) {
	for i := range g.loops {
		g.loops[i] = agentLoop{g: g, slot: i}
	}
	if g.mode == ModeSOL {
		g.agents[0] = g.k.Spawn("ghost-agent", policyID, &g.loops[0],
			kernel.WithAffinity(kernel.SingleCPU(g.agentCPU)),
			kernel.WithUserData(agentMarker{slot: 0}))
		return
	}
	for cpu := 0; cpu < g.k.NumCPUs(); cpu++ {
		g.agents[cpu] = g.k.Spawn(fmt.Sprintf("ghost-agent-%d", cpu), policyID,
			&g.loops[cpu],
			kernel.WithAffinity(kernel.SingleCPU(cpu)),
			kernel.WithUserData(agentMarker{slot: cpu}))
	}
}

func (g *Ghost) slotFor(cpu int) int {
	if g.mode == ModeSOL {
		return 0
	}
	return cpu
}

func (g *Ghost) isAgent(t *kernel.Task) bool {
	_, ok := t.UserData.(agentMarker)
	return ok
}

// agentSlot returns the agent slot of an agent task.
func agentSlot(t *kernel.Task) int { return t.UserData.(agentMarker).slot }

// post enqueues a message for the responsible agent and wakes it, or ends
// its run of empty rounds at the first round that sees the message.
func (g *Ghost) post(m AgentMsg) {
	slot := g.slotFor(m.CPU)
	g.pending[slot] = append(g.pending[slot], m)
	if a := g.agents[slot]; a != nil {
		g.k.Wake(a)
		g.k.CutPoll(a)
	}
}

// AgentActivations counts agent scheduling rounds, the empty rounds of a
// SOL agent's idle spin included: those that have started by now, as the
// agent's SumExec counts its execution.
func (g *Ghost) AgentActivations() uint64 {
	n := g.rounds
	for i := range g.loops {
		if l := &g.loops[i]; l.idle {
			n += uint64((g.agents[i].SumExec() - l.mark) / l.round())
		}
	}
	return n
}

// emptyRounds is how many empty rounds one idle spin segment of the SOL agent
// covers. Any count gives the same run; this one keeps a segment (about
// 1.2 ms at the default costs) inside the engine's near wheel.
const emptyRounds = 256

// agentLoop is the userspace agent loop of one agent slot: drain messages,
// run the policy, commit transactions, optionally poll for preemption. It is
// the agent task's Behavior and, for the SOL agent, a kernel.Poller: a round
// that drained and committed nothing, with nothing pending and no slice,
// leaves every input of the next round as it found it, so the rounds after
// it are all the same until the next post. They run as one OpPoll segment
// of round-length polls, which post cuts (idle marks it, from when the
// agent's SumExec was mark).
type agentLoop struct {
	g    *Ghost
	slot int
	idle bool
	mark time.Duration
}

// round is the length of an empty round: its base cost and one spin poll.
func (l *agentLoop) round() time.Duration { return l.g.costs.AgentBase + l.g.costs.SpinPoll }

// Polls implements kernel.Poller: one poll at the start of every round.
func (l *agentLoop) Polls(off time.Duration) (last, next, from time.Duration) {
	r := l.round()
	next = (off + r - 1) / r * r
	return next - r, next, r
}

// Next implements kernel.Behavior: one agent round.
func (l *agentLoop) Next(k *kernel.Kernel, t *kernel.Task) kernel.Action {
	g, slot := l.g, l.slot
	if l.idle {
		// The rounds the segment covered before the one starting now.
		g.rounds += uint64((t.SumExec()-l.mark)/l.round()) - 1
		l.idle = false
	}
	g.rounds++
	// Swap buffers before draining: a post made meanwhile lands in the
	// fresh one and waits for the next round.
	msgs := g.pending[slot]
	g.pending[slot] = g.spare[slot][:0]
	for _, m := range msgs {
		g.policy.OnMessage(m)
	}
	g.spare[slot] = msgs[:0]
	cost := g.costs.AgentBase + time.Duration(len(msgs))*g.costs.AgentPerMsg

	// With nothing pending every NextFor would say no, so the walk
	// stops as soon as the policy has nothing left to hand out.
	commits := 0
	for _, cpu := range g.cpus[slot] {
		if g.policy.Pending() == 0 {
			break
		}
		if g.committed[cpu] == 0 && g.currPID[cpu] == 0 {
			if pid, ok := g.policy.NextFor(cpu); ok {
				g.committed[cpu] = pid
				commits++
				if cpu != t.CPU() {
					k.Resched(cpu)
				}
			}
		}
	}
	cost += time.Duration(commits) * (g.costs.TxnCommit + g.costs.CommitApply)

	// µs-scale preemption: poll running tasks against the slice.
	if slice := g.policy.Slice(); slice > 0 {
		anyRunning := false
		now := k.Now()
		for _, cpu := range g.cpus[slot] {
			if g.currPID[cpu] == 0 {
				continue
			}
			anyRunning = true
			if g.policy.Pending() > 0 && now.Sub(g.pickedAt[cpu]) >= slice {
				k.Resched(cpu)
				// Optimistically requeue the preempted task
				// and commit its replacement now, so the CPU
				// does not idle until the next agent cycle
				// waiting for the MPreempt round trip.
				pid := g.currPID[cpu]
				g.policy.OnMessage(AgentMsg{Kind: MPreempt, PID: pid, CPU: cpu})
				if g.committed[cpu] == 0 {
					if npid, ok := g.policy.NextFor(cpu); ok {
						g.committed[cpu] = npid
						cost += g.costs.TxnCommit + g.costs.CommitApply
					}
				}
			}
		}
		if anyRunning {
			return kernel.Action{Run: cost, Op: kernel.OpSleep, SleepFor: slice}
		}
	}
	if g.mode == ModeSOL {
		// The latency-optimized global agent spins on its
		// dedicated core rather than sleeping; messages are
		// picked up within one poll chunk.
		if len(msgs) == 0 && commits == 0 && g.policy.Pending() == 0 && g.policy.Slice() == 0 {
			l.idle, l.mark = true, t.SumExec()
			return kernel.Action{Run: emptyRounds * l.round(), Op: kernel.OpPoll}
		}
		return kernel.Action{Run: cost + g.costs.SpinPoll, Op: kernel.OpContinue}
	}
	return kernel.Action{Run: cost, Op: kernel.OpBlock}
}

// --- kernel.Class ----------------------------------------------------------

// Name implements kernel.Class.
func (g *Ghost) Name() string { return "ghost-" + g.policy.Name() }

// OverheadPerCall implements kernel.Class: each crossing posts a message.
func (g *Ghost) OverheadPerCall() time.Duration { return g.costs.MsgPost }

// TaskNew implements kernel.Class.
func (g *Ghost) TaskNew(t *kernel.Task) {}

// TaskDead implements kernel.Class.
func (g *Ghost) TaskDead(t *kernel.Task) {
	if g.isAgent(t) {
		return
	}
	g.post(AgentMsg{Kind: MDead, PID: t.PID(), CPU: t.CPU(), Runtime: t.SumExec()})
}

// Detach implements kernel.Class.
func (g *Ghost) Detach(t *kernel.Task) {
	if !g.isAgent(t) {
		g.post(AgentMsg{Kind: MDead, PID: t.PID(), CPU: t.CPU(), Runtime: t.SumExec()})
	}
}

// Enqueue implements kernel.Class.
func (g *Ghost) Enqueue(cpu int, t *kernel.Task, wakeup bool) {
	if g.isAgent(t) {
		g.woken[agentSlot(t)] = true
		return
	}
	kind := MWakeup
	if _, known := g.tasks[t.PID()]; !known && t.SumExec() == 0 {
		kind = MNew
	}
	g.tasks[t.PID()] = t
	g.nqueued[cpu]++
	m := AgentMsg{Kind: kind, PID: t.PID(), CPU: cpu, Runtime: t.SumExec()}
	if kind == MNew {
		m.Allowed = t.Allowed().List()
	}
	g.post(m)
}

// Dequeue implements kernel.Class.
func (g *Ghost) Dequeue(cpu int, t *kernel.Task, sleep bool) {
	if g.isAgent(t) {
		g.woken[agentSlot(t)] = false
		return
	}
	if _, ok := g.tasks[t.PID()]; ok {
		delete(g.tasks, t.PID())
		if g.nqueued[cpu] > 0 {
			g.nqueued[cpu]--
		}
	}
	if g.currPID[cpu] == t.PID() {
		g.currPID[cpu] = 0
	}
	if sleep {
		g.post(AgentMsg{Kind: MBlocked, PID: t.PID(), CPU: cpu, Runtime: t.SumExec()})
	}
}

// Yield implements kernel.Class.
func (g *Ghost) Yield(cpu int, t *kernel.Task) {
	g.requeue(MYield, cpu, t)
}

// PutPrev implements kernel.Class.
func (g *Ghost) PutPrev(cpu int, t *kernel.Task, preempted bool) {
	g.requeue(MPreempt, cpu, t)
}

func (g *Ghost) requeue(kind MsgKind, cpu int, t *kernel.Task) {
	if g.isAgent(t) {
		g.woken[agentSlot(t)] = true
		return
	}
	if g.currPID[cpu] == t.PID() {
		g.currPID[cpu] = 0
	}
	g.tasks[t.PID()] = t
	g.nqueued[cpu]++
	g.post(AgentMsg{Kind: kind, PID: t.PID(), CPU: cpu, Runtime: t.SumExec()})
}

// PickNext implements kernel.Class: agents first, then the committed
// transaction if it still validates.
func (g *Ghost) PickNext(cpu int) *kernel.Task {
	slot := g.slotFor(cpu)
	if g.mode == ModePerCPU || cpu == g.agentCPU {
		if g.woken[slot] && g.agents[slot] != nil {
			g.woken[slot] = false
			return g.agents[slot]
		}
	}
	if pid := g.committed[cpu]; pid != 0 {
		g.committed[cpu] = 0
		t := g.tasks[pid]
		if t == nil || t.State() != kernel.StateRunnable || !t.Allowed().Has(cpu) {
			// Stale decision: the world changed while the agent ran.
			g.StaleCommits++
		} else {
			delete(g.tasks, pid)
			if g.nqueued[t.CPU()] > 0 {
				g.nqueued[t.CPU()]--
			}
			g.currPID[cpu] = pid
			g.pickedAt[cpu] = g.k.Now()
			// Applying the transaction costs kernel time; model it
			// by arming nothing and letting OverheadPerCall cover
			// the crossing plus CommitApply here via a no-op.
			return t
		}
	}
	// Nothing committed: if this CPU has queued work, make sure its agent
	// will run (the SOL agent spins and never needs waking).
	if g.mode == ModePerCPU && g.nqueued[cpu] > 0 && g.agents[slot] != nil {
		g.k.Wake(g.agents[slot])
	}
	return nil
}

// Tick implements kernel.Class: ghOSt drives preemption from agents, not
// ticks.
func (g *Ghost) Tick(cpu int, t *kernel.Task) {}

// SelectRQ implements kernel.Class: agents stay pinned; workload tasks keep
// their previous CPU (the agent's commit decides where they really run).
func (g *Ghost) SelectRQ(t *kernel.Task, prevCPU int, wakeup bool) int {
	if g.isAgent(t) {
		if g.mode == ModeSOL {
			return g.agentCPU
		}
		return prevCPU
	}
	if wakeup && t.Allowed().Has(prevCPU) && (g.mode == ModePerCPU || prevCPU != g.agentCPU) {
		return prevCPU
	}
	// Fork/forced placement: spread onto the least-loaded allowed CPU so
	// per-CPU FIFO queues start balanced (the agents never rebalance).
	best, bestLoad := -1, 1<<30
	allowed := t.Allowed()
	for cpu := 0; cpu < len(g.nqueued); cpu++ {
		if !allowed.Has(cpu) || g.mode == ModeSOL && cpu == g.agentCPU {
			continue
		}
		load := g.nqueued[cpu]
		if g.currPID[cpu] != 0 {
			load++
		}
		if load < bestLoad {
			best, bestLoad = cpu, load
		}
	}
	if best >= 0 {
		return best
	}
	return prevCPU
}

// CheckPreempt implements kernel.Class: a woken agent preempts workload
// tasks immediately; workload wakeups wait for the agent's decision.
func (g *Ghost) CheckPreempt(cpu int, t *kernel.Task) {
	if g.isAgent(t) {
		g.k.Resched(cpu)
	}
}

// Balance implements kernel.Class: the agent owns placement.
func (g *Ghost) Balance(cpu int) {}

// Migrate implements kernel.Class.
func (g *Ghost) Migrate(t *kernel.Task, src, dst int) {
	if g.isAgent(t) {
		return
	}
	if _, ok := g.tasks[t.PID()]; ok {
		if g.nqueued[src] > 0 {
			g.nqueued[src]--
		}
		g.nqueued[dst]++
	}
}

// PrioChanged implements kernel.Class.
func (g *Ghost) PrioChanged(t *kernel.Task) {}

// AffinityChanged implements kernel.Class.
func (g *Ghost) AffinityChanged(t *kernel.Task) {}

// NRunnable implements kernel.Class.
func (g *Ghost) NRunnable(cpu int) int { return g.nqueued[cpu] }

// --- policies ---------------------------------------------------------------

// FIFOPolicy is ghOSt's per-CPU FIFO: one queue per CPU, tasks stay where
// their messages said they were.
type FIFOPolicy struct {
	queues []core.Deque[int] // by CPU, grown as CPUs are first named
	queued map[int]int       // pid → the CPU whose queue holds it
}

// NewFIFOPolicy builds the per-CPU FIFO policy.
func NewFIFOPolicy() *FIFOPolicy { return &FIFOPolicy{queued: make(map[int]int)} }

// Name implements AgentPolicy.
func (p *FIFOPolicy) Name() string { return "fifo" }

// OnMessage implements AgentPolicy.
func (p *FIFOPolicy) OnMessage(m AgentMsg) {
	switch m.Kind {
	case MNew, MWakeup, MPreempt, MYield:
		p.remove(m.PID)
		for m.CPU >= len(p.queues) {
			p.queues = append(p.queues, core.Deque[int]{})
		}
		p.queues[m.CPU].PushBack(m.PID)
		p.queued[m.PID] = m.CPU
	case MBlocked, MDead:
		p.remove(m.PID)
	}
}

func (p *FIFOPolicy) remove(pid int) {
	if cpu, ok := p.queued[pid]; ok {
		p.queues[cpu].Remove(pid)
		delete(p.queued, pid)
	}
}

// NextFor implements AgentPolicy.
func (p *FIFOPolicy) NextFor(cpu int) (int, bool) {
	if cpu < len(p.queues) {
		if pid, ok := p.queues[cpu].PopFront(); ok {
			delete(p.queued, pid)
			return pid, true
		}
	}
	return 0, false
}

// Slice implements AgentPolicy: run to block.
func (p *FIFOPolicy) Slice() time.Duration { return 0 }

// Pending implements AgentPolicy.
func (p *FIFOPolicy) Pending() int { return len(p.queued) }

// GlobalPolicy is a single global FCFS queue — the SOL arrangement's
// policy, optionally with a Shinjuku-style preemption quantum. Tasks prefer
// the CPU they last ran on (cache warmth); the oldest arrival wins
// otherwise.
type GlobalPolicy struct {
	queue   core.Deque[int]
	allowed map[int]*kernel.CPUMask // from MNew; absent means every CPU
	lastCPU map[int]int
	slice   time.Duration
	name    string
}

// NewSOLPolicy builds the latency-optimized global FIFO (no preemption).
func NewSOLPolicy() *GlobalPolicy {
	return &GlobalPolicy{allowed: make(map[int]*kernel.CPUMask), lastCPU: make(map[int]int), name: "sol"}
}

// NewShinjukuPolicy builds the ghOSt version of Shinjuku: global FCFS with
// the given preemption quantum.
func NewShinjukuPolicy(slice time.Duration) *GlobalPolicy {
	return &GlobalPolicy{allowed: make(map[int]*kernel.CPUMask), lastCPU: make(map[int]int), slice: slice, name: "shinjuku"}
}

// Name implements AgentPolicy.
func (p *GlobalPolicy) Name() string { return p.name }

// OnMessage implements AgentPolicy.
func (p *GlobalPolicy) OnMessage(m AgentMsg) {
	switch m.Kind {
	case MNew, MWakeup, MPreempt, MYield:
		p.queue.Remove(m.PID)
		p.queue.PushBack(m.PID)
		p.lastCPU[m.PID] = m.CPU
		if m.Kind == MNew && len(m.Allowed) > 0 {
			mask := new(kernel.CPUMask)
			for _, cpu := range m.Allowed {
				mask.Set(cpu)
			}
			p.allowed[m.PID] = mask
		}
	case MBlocked, MDead:
		p.queue.Remove(m.PID)
		if m.Kind == MDead {
			delete(p.allowed, m.PID)
			delete(p.lastCPU, m.PID)
		}
	}
}

func (p *GlobalPolicy) allows(pid, cpu int) bool {
	a, ok := p.allowed[pid]
	return !ok || a.Has(cpu)
}

// NextFor implements AgentPolicy: prefer the oldest arrival that last ran
// on cpu (cache warmth), falling back to the oldest allowed arrival.
func (p *GlobalPolicy) NextFor(cpu int) (int, bool) {
	pick := -1
	for i := 0; i < p.queue.Len(); i++ {
		pid := p.queue.At(i)
		if !p.allows(pid, cpu) {
			continue
		}
		if p.lastCPU[pid] == cpu {
			pick = i
			break
		}
		if pick == -1 {
			pick = i
		}
	}
	if pick == -1 {
		return 0, false
	}
	return p.queue.RemoveAt(pick), true
}

// Slice implements AgentPolicy.
func (p *GlobalPolicy) Slice() time.Duration { return p.slice }

// Pending implements AgentPolicy.
func (p *GlobalPolicy) Pending() int { return p.queue.Len() }
