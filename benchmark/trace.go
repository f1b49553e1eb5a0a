package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"

	"enoki"
)

// tracer records spans from outside the program: the benchmark wraps the
// interfaces it hands in (Scheduler, Class, Placer) and brackets its own
// calls into the front door. Coarse spans (workload, rep, phase, experiment)
// are kept one by one for trace.json; hook-level spans — tens of millions a
// run — are folded as they close into per-name (count, total, self). A span's
// self time is its duration minus what its children cover.
//
// Folded times are settled rep by rep: settle multiplies what the spans since
// the last settle cost by the host speed measured around that rep, like every
// other host time the benchmark reports (ref.go). trace.json keeps the raw
// timeline.
//
// A nil *tracer is the untraced run: every method is a no-op, and workloads
// install decorators only when handed a non-nil one.
type tracer struct {
	t0    time.Time
	ids   map[string]int
	names []string
	// open holds the raw folds since the last settle, folds the settled ones.
	open  []rawFold
	folds []fold
	stack []frame
	spans []span

	// hooks counts hook-level spans closed. Each costs host time of its own:
	// pairNs in all, of which inNs falls inside the span and inflates its
	// self time and the rest lands in the parent's. Both are calibrated on
	// empty spans when the tracer is made (and scaled to reference speed like
	// the folds), so self times can be stated net.
	hooks  uint64
	pairNs float64
	inNs   float64
}

type rawFold struct {
	count       uint64
	total, self int64
}

// fold is one span name's settled sum: host nanoseconds at reference speed.
type fold struct {
	Count   uint64  `json:"count"`
	TotalNs float64 `json:"total_ns"`
	SelfNs  float64 `json:"self_ns"`
}

type frame struct {
	id    int
	start int64
	child int64
	span  int // index into spans for a coarse span, -1 for a folded one
}

type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int // index of the enclosing coarse span, -1 at the root
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now(), ids: make(map[string]int)}
	const batches, n = 5, 20000
	id := tr.id("tracer.calibration")
	pair, in := make([]float64, batches), make([]float64, batches)
	speed := atHostSpeed(func() {
		for b := range pair {
			tr.open[id] = rawFold{}
			start := time.Now()
			for i := 0; i < n; i++ {
				tr.enter(id)
				tr.exit()
			}
			pair[b] = float64(time.Since(start)) / n
			in[b] = float64(tr.open[id].total) / n
		}
	})
	tr.open[id], tr.hooks = rawFold{}, 0
	tr.pairNs, tr.inNs = median(pair)*speed, median(in)*speed
	return tr
}

// settle closes the books on the spans folded since the last settle, which
// ran while the host was at the given speed.
func (tr *tracer) settle(speed float64) {
	for i, o := range tr.open {
		tr.folds[i].Count += o.count
		tr.folds[i].TotalNs += float64(o.total) * speed
		tr.folds[i].SelfNs += float64(o.self) * speed
		tr.open[i] = rawFold{}
	}
}

// netSelfNs is a settled layer's self time with the tracer's own in-span cost
// taken out.
func (tr *tracer) netSelfNs(f fold) float64 {
	return max(f.SelfNs-float64(f.Count)*tr.inNs, 0)
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// id interns a span name; decorators resolve their names once, at
// construction, so the per-hook path does no map lookup.
func (tr *tracer) id(name string) int {
	if i, ok := tr.ids[name]; ok {
		return i
	}
	i := len(tr.names)
	tr.ids[name] = i
	tr.names = append(tr.names, name)
	tr.open = append(tr.open, rawFold{})
	tr.folds = append(tr.folds, fold{})
	return i
}

// enter opens a hook-level span; exit closes the innermost open span.
func (tr *tracer) enter(id int) {
	tr.stack = append(tr.stack, frame{id: id, start: tr.now(), span: -1})
}

func (tr *tracer) exit() {
	now := tr.now()
	n := len(tr.stack) - 1
	f := tr.stack[n]
	tr.stack = tr.stack[:n]
	d := now - f.start
	o := &tr.open[f.id]
	o.count++
	o.total += d
	o.self += d - f.child
	if n > 0 {
		tr.stack[n-1].child += d
	}
	if f.span >= 0 {
		tr.spans[f.span].End = now
	} else {
		tr.hooks++
	}
}

// begin opens a coarse span, kept individually as well as folded; end closes
// it. Both are no-ops on a nil tracer so workloads call them unconditionally.
func (tr *tracer) begin(name string) {
	if tr == nil {
		return
	}
	parent := -1
	for i := len(tr.stack) - 1; i >= 0; i-- {
		if tr.stack[i].span >= 0 {
			parent = tr.stack[i].span
			break
		}
	}
	now := tr.now()
	tr.spans = append(tr.spans, span{Name: name, Start: now, Parent: parent})
	tr.stack = append(tr.stack, frame{id: tr.id(name), start: now, span: len(tr.spans) - 1})
}

func (tr *tracer) end() {
	if tr == nil {
		return
	}
	tr.exit()
}

// layer sums the settled spans of one layer: the span called name and the
// spans called name.<hook>.
func (tr *tracer) layer(name string) fold {
	var sum fold
	for i, n := range tr.names {
		if n == name || strings.HasPrefix(n, name+".") {
			sum.Count += tr.folds[i].Count
			sum.TotalNs += tr.folds[i].TotalNs
			sum.SelfNs += tr.folds[i].SelfNs
		}
	}
	return sum
}

// foldsByName returns the non-empty settled spans keyed by name.
func (tr *tracer) foldsByName() map[string]fold {
	out := make(map[string]fold)
	for i, name := range tr.names {
		if tr.folds[i].Count > 0 {
			out[name] = tr.folds[i]
		}
	}
	return out
}

// chromeEvents renders the coarse spans as Chrome trace "complete" events
// (chrome://tracing, ui.perfetto.dev).
func (tr *tracer) chromeEvents() []map[string]any {
	evs := make([]map[string]any, 0, len(tr.spans))
	for i, s := range tr.spans {
		parent := ""
		if s.Parent >= 0 {
			parent = tr.spans[s.Parent].Name
		}
		evs = append(evs, map[string]any{
			"name": s.Name, "ph": "X", "pid": 1, "tid": 1,
			"ts":   float64(s.Start) / 1e3,
			"dur":  float64(s.End-s.Start) / 1e3,
			"args": map[string]any{"id": i, "parent": parent, "parent_id": s.Parent},
		})
	}
	return evs
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// --- decorators ----------------------------------------------------------------
//
// Each decorator forwards every method of the interface it wraps and brackets
// the call in a hook-level span. They cost host time only: the wrapped object
// sees the same calls with the same arguments, so the simulation — and its
// digest — is the one the untraced run produces.

// schedSpan decorates a Scheduler handed to GoModule.
type schedSpan struct {
	s  enoki.Scheduler
	tr *tracer

	pick, pntErr, dead, blocked, wakeup, taskNew, preempt, yield, departed,
	affinity, prio, tick, selectRQ, migrate, balance, balanceErr, prepare,
	reInit, regQ, regRevQ, enterQ, unregQ, unregRevQ, parseHint int
}

// schedSpanBrownout is schedSpan for a scheduler that has a degraded mode:
// the framework finds core.BrownoutMode by type assertion, so the decorator
// must offer it exactly when the wrapped scheduler does.
type schedSpanBrownout struct {
	*schedSpan
	degraded int
}

func (d *schedSpanBrownout) SetDegraded(on bool) {
	d.tr.enter(d.degraded)
	d.s.(interface{ SetDegraded(bool) }).SetDegraded(on)
	d.tr.exit()
}

// traceScheduler wraps factory's scheduler in spans; with a nil tracer it
// returns factory unchanged.
func traceScheduler(tr *tracer, factory func(enoki.Env) enoki.Scheduler) func(enoki.Env) enoki.Scheduler {
	if tr == nil {
		return factory
	}
	return func(env enoki.Env) enoki.Scheduler {
		id := func(hook string) int { return tr.id("sched." + hook) }
		d := &schedSpan{s: factory(env), tr: tr,
			pick: id("pick_next_task"), pntErr: id("pnt_err"), dead: id("task_dead"),
			blocked: id("task_blocked"), wakeup: id("task_wakeup"), taskNew: id("task_new"),
			preempt: id("task_preempt"), yield: id("task_yield"), departed: id("task_departed"),
			affinity: id("task_affinity_changed"), prio: id("task_prio_changed"), tick: id("task_tick"),
			selectRQ: id("select_task_rq"), migrate: id("migrate_task_rq"), balance: id("balance"),
			balanceErr: id("balance_err"), prepare: id("reregister_prepare"), reInit: id("reregister_init"),
			regQ: id("register_queue"), regRevQ: id("register_reverse_queue"), enterQ: id("enter_queue"),
			unregQ: id("unregister_queue"), unregRevQ: id("unregister_rev_queue"), parseHint: id("parse_hint"),
		}
		if _, ok := d.s.(interface{ SetDegraded(bool) }); ok {
			return &schedSpanBrownout{schedSpan: d, degraded: id("set_degraded")}
		}
		return d
	}
}

func (d *schedSpan) GetPolicy() int { return d.s.GetPolicy() }

func (d *schedSpan) PickNextTask(cpu int, curr *enoki.Schedulable, rt time.Duration) *enoki.Schedulable {
	d.tr.enter(d.pick)
	r := d.s.PickNextTask(cpu, curr, rt)
	d.tr.exit()
	return r
}

func (d *schedSpan) PntErr(cpu, pid int, err enoki.PickError, s *enoki.Schedulable) {
	d.tr.enter(d.pntErr)
	d.s.PntErr(cpu, pid, err, s)
	d.tr.exit()
}

func (d *schedSpan) TaskDead(pid int) {
	d.tr.enter(d.dead)
	d.s.TaskDead(pid)
	d.tr.exit()
}

func (d *schedSpan) TaskBlocked(pid int, rt time.Duration, cpu int) {
	d.tr.enter(d.blocked)
	d.s.TaskBlocked(pid, rt, cpu)
	d.tr.exit()
}

func (d *schedSpan) TaskWakeup(pid int, rt time.Duration, deferrable bool, lastCPU, wakeCPU int, s *enoki.Schedulable) {
	d.tr.enter(d.wakeup)
	d.s.TaskWakeup(pid, rt, deferrable, lastCPU, wakeCPU, s)
	d.tr.exit()
}

func (d *schedSpan) TaskNew(pid int, rt time.Duration, runnable bool, allowed []int, s *enoki.Schedulable) {
	d.tr.enter(d.taskNew)
	d.s.TaskNew(pid, rt, runnable, allowed, s)
	d.tr.exit()
}

func (d *schedSpan) TaskPreempt(pid int, rt time.Duration, cpu int, preempted bool, s *enoki.Schedulable) {
	d.tr.enter(d.preempt)
	d.s.TaskPreempt(pid, rt, cpu, preempted, s)
	d.tr.exit()
}

func (d *schedSpan) TaskYield(pid int, rt time.Duration, cpu int, s *enoki.Schedulable) {
	d.tr.enter(d.yield)
	d.s.TaskYield(pid, rt, cpu, s)
	d.tr.exit()
}

func (d *schedSpan) TaskDeparted(pid, cpu int) *enoki.Schedulable {
	d.tr.enter(d.departed)
	r := d.s.TaskDeparted(pid, cpu)
	d.tr.exit()
	return r
}

func (d *schedSpan) TaskAffinityChanged(pid int, allowed []int) {
	d.tr.enter(d.affinity)
	d.s.TaskAffinityChanged(pid, allowed)
	d.tr.exit()
}

func (d *schedSpan) TaskPrioChanged(pid, prio int) {
	d.tr.enter(d.prio)
	d.s.TaskPrioChanged(pid, prio)
	d.tr.exit()
}

func (d *schedSpan) TaskTick(cpu int, queued bool, currPID int, rt time.Duration) {
	d.tr.enter(d.tick)
	d.s.TaskTick(cpu, queued, currPID, rt)
	d.tr.exit()
}

func (d *schedSpan) SelectTaskRQ(pid, prevCPU int, wakeup bool) int {
	d.tr.enter(d.selectRQ)
	r := d.s.SelectTaskRQ(pid, prevCPU, wakeup)
	d.tr.exit()
	return r
}

func (d *schedSpan) MigrateTaskRQ(pid, newCPU int, s *enoki.Schedulable) *enoki.Schedulable {
	d.tr.enter(d.migrate)
	r := d.s.MigrateTaskRQ(pid, newCPU, s)
	d.tr.exit()
	return r
}

func (d *schedSpan) Balance(cpu int) (uint64, bool) {
	d.tr.enter(d.balance)
	pid, ok := d.s.Balance(cpu)
	d.tr.exit()
	return pid, ok
}

func (d *schedSpan) BalanceErr(cpu int, pid uint64, s *enoki.Schedulable) {
	d.tr.enter(d.balanceErr)
	d.s.BalanceErr(cpu, pid, s)
	d.tr.exit()
}

func (d *schedSpan) ReregisterPrepare() *enoki.TransferOut {
	d.tr.enter(d.prepare)
	r := d.s.ReregisterPrepare()
	d.tr.exit()
	return r
}

func (d *schedSpan) ReregisterInit(in *enoki.TransferIn) {
	d.tr.enter(d.reInit)
	d.s.ReregisterInit(in)
	d.tr.exit()
}

func (d *schedSpan) RegisterQueue(q *enoki.HintQueue) int {
	d.tr.enter(d.regQ)
	r := d.s.RegisterQueue(q)
	d.tr.exit()
	return r
}

func (d *schedSpan) RegisterReverseQueue(q *enoki.RevQueue) int {
	d.tr.enter(d.regRevQ)
	r := d.s.RegisterReverseQueue(q)
	d.tr.exit()
	return r
}

func (d *schedSpan) EnterQueue(id, count int) {
	d.tr.enter(d.enterQ)
	d.s.EnterQueue(id, count)
	d.tr.exit()
}

func (d *schedSpan) UnregisterQueue(id int) *enoki.HintQueue {
	d.tr.enter(d.unregQ)
	r := d.s.UnregisterQueue(id)
	d.tr.exit()
	return r
}

func (d *schedSpan) UnregisterRevQueue(id int) *enoki.RevQueue {
	d.tr.enter(d.unregRevQ)
	r := d.s.UnregisterRevQueue(id)
	d.tr.exit()
	return r
}

func (d *schedSpan) ParseHint(h enoki.Hint) {
	d.tr.enter(d.parseHint)
	d.s.ParseHint(h)
	d.tr.exit()
}

// classSpan decorates a builtin kernel Class (CFS) registered per shard.
type classSpan struct {
	c  enoki.Class
	tr *tracer

	taskNew, dead, detach, enqueue, dequeue, yield, putPrev, pick, tick,
	selectRQ, checkPreempt, balance, migrate, prio, affinity int
}

func traceClass(tr *tracer, layer string, c enoki.Class) enoki.Class {
	id := func(hook string) int { return tr.id(layer + "." + hook) }
	return &classSpan{c: c, tr: tr,
		taskNew: id("task_new"), dead: id("task_dead"), detach: id("detach"),
		enqueue: id("enqueue"), dequeue: id("dequeue"), yield: id("yield"),
		putPrev: id("put_prev"), pick: id("pick_next"), tick: id("tick"),
		selectRQ: id("select_rq"), checkPreempt: id("check_preempt"), balance: id("balance"),
		migrate: id("migrate"), prio: id("prio_changed"), affinity: id("affinity_changed"),
	}
}

// Name, OverheadPerCall and NRunnable are plain reads the kernel makes for
// accounting; they are forwarded without a span.
func (d *classSpan) Name() string                   { return d.c.Name() }
func (d *classSpan) OverheadPerCall() time.Duration { return d.c.OverheadPerCall() }
func (d *classSpan) NRunnable(cpu int) int          { return d.c.NRunnable(cpu) }

func (d *classSpan) TaskNew(t *enoki.Task) {
	d.tr.enter(d.taskNew)
	d.c.TaskNew(t)
	d.tr.exit()
}

func (d *classSpan) TaskDead(t *enoki.Task) {
	d.tr.enter(d.dead)
	d.c.TaskDead(t)
	d.tr.exit()
}

func (d *classSpan) Detach(t *enoki.Task) {
	d.tr.enter(d.detach)
	d.c.Detach(t)
	d.tr.exit()
}

func (d *classSpan) Enqueue(cpu int, t *enoki.Task, wakeup bool) {
	d.tr.enter(d.enqueue)
	d.c.Enqueue(cpu, t, wakeup)
	d.tr.exit()
}

func (d *classSpan) Dequeue(cpu int, t *enoki.Task, sleep bool) {
	d.tr.enter(d.dequeue)
	d.c.Dequeue(cpu, t, sleep)
	d.tr.exit()
}

func (d *classSpan) Yield(cpu int, t *enoki.Task) {
	d.tr.enter(d.yield)
	d.c.Yield(cpu, t)
	d.tr.exit()
}

func (d *classSpan) PutPrev(cpu int, t *enoki.Task, preempted bool) {
	d.tr.enter(d.putPrev)
	d.c.PutPrev(cpu, t, preempted)
	d.tr.exit()
}

func (d *classSpan) PickNext(cpu int) *enoki.Task {
	d.tr.enter(d.pick)
	t := d.c.PickNext(cpu)
	d.tr.exit()
	return t
}

func (d *classSpan) Tick(cpu int, t *enoki.Task) {
	d.tr.enter(d.tick)
	d.c.Tick(cpu, t)
	d.tr.exit()
}

func (d *classSpan) SelectRQ(t *enoki.Task, prevCPU int, wakeup bool) int {
	d.tr.enter(d.selectRQ)
	cpu := d.c.SelectRQ(t, prevCPU, wakeup)
	d.tr.exit()
	return cpu
}

func (d *classSpan) CheckPreempt(cpu int, t *enoki.Task) {
	d.tr.enter(d.checkPreempt)
	d.c.CheckPreempt(cpu, t)
	d.tr.exit()
}

func (d *classSpan) Balance(cpu int) {
	d.tr.enter(d.balance)
	d.c.Balance(cpu)
	d.tr.exit()
}

func (d *classSpan) Migrate(t *enoki.Task, src, dst int) {
	d.tr.enter(d.migrate)
	d.c.Migrate(t, src, dst)
	d.tr.exit()
}

func (d *classSpan) PrioChanged(t *enoki.Task) {
	d.tr.enter(d.prio)
	d.c.PrioChanged(t)
	d.tr.exit()
}

func (d *classSpan) AffinityChanged(t *enoki.Task) {
	d.tr.enter(d.affinity)
	d.c.AffinityChanged(t)
	d.tr.exit()
}

// placerSpan decorates the cluster placement policy.
type placerSpan struct {
	p    enoki.Placer
	tr   *tracer
	pick int
}

func tracePlacer(tr *tracer, p enoki.Placer) enoki.Placer {
	return &placerSpan{p: p, tr: tr, pick: tr.id("cluster.place")}
}

func (d *placerSpan) Name() string { return d.p.Name() }

func (d *placerSpan) Pick(j *enoki.Job, view []enoki.MachineView) int {
	d.tr.enter(d.pick)
	m := d.p.Pick(j, view)
	d.tr.exit()
	return m
}
