// The control plane follows the jobScheduler/transformer/state-machine split
// of cluster schedulers: the placer (Placer) decides *where* each job should
// run (desired state), the reconciler diffs desired against actual and emits
// start/stop operations toward machine agents, and each job advances through
// an explicit state machine driven only by acknowledged reports — never by
// assumptions about in-flight operations. Everything here runs on the
// control-plane engine (fleet node 0), so the whole scheduler is a
// deterministic single-threaded program even when the fleet drive is
// parallel.
package cluster

import (
	"slices"
	"time"

	"enoki/internal/ktime"
	"enoki/internal/sim"
	"enoki/internal/stats"
)

// JobState is one stage of a job's lifecycle.
type JobState uint8

// Job lifecycle states. A job is Pending until placed, Starting while its
// start operation is in flight, Running once the machine acknowledged the
// spawn, Stopping while a migration stop is in flight, and Done when its
// final cycle completed. Machine failure knocks a job from any in-flight
// state back to Pending with Restarts incremented.
const (
	JobPending JobState = iota
	JobStarting
	JobRunning
	JobStopping
	JobDone
)

func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobStarting:
		return "starting"
	case JobRunning:
		return "running"
	case JobStopping:
		return "stopping"
	case JobDone:
		return "done"
	default:
		return "invalid"
	}
}

// JobSpec describes the work of one job: Cycles compute segments of Run
// each, separated by Sleep (pure CPU hogs use Sleep 0). Zero fields take
// defaults sized so a default job finishes in a few reconcile intervals.
type JobSpec struct {
	Name   string
	Cycles int
	Run    time.Duration
	Sleep  time.Duration
}

func (s JobSpec) withDefaults() JobSpec {
	if s.Name == "" {
		s.Name = "job"
	}
	if s.Cycles <= 0 {
		s.Cycles = 3
	}
	if s.Run <= 0 {
		s.Run = 200 * time.Microsecond
	}
	return s
}

// Job is the control plane's record of one submitted job. Callers get
// copies; the scheduler owns the canonical struct.
type Job struct {
	ID   int
	Spec JobSpec
	// State is the lifecycle stage; Machine is where the job is (or was
	// last) placed, -1 when unplaced. Desired is the placement target, -1
	// until the placer picks one; it differs from Machine only while a
	// migration is underway.
	State   JobState
	Machine int
	Desired int
	// Shard is the NUMA shard of Machine the job was spawned on.
	Shard int
	// CyclesLeft is the last checkpointed progress: migrations resume from
	// the stopped report's count, machine failures resume from the last
	// checkpoint (work since then is lost and re-done — at-least-once).
	CyclesLeft  int
	Restarts    int
	Migrations  int
	SubmittedAt ktime.Time
	StartedAt   ktime.Time // first successful placement ack
	DoneAt      ktime.Time
	placed      bool
	startSent   ktime.Time // when the latest start op left the control plane
}

// jobRec is one slot of the job slab: the public record and, beside it —
// never in it: the chaos pins hash Job's exact rendering — the control
// plane's private state for the job.
type jobRec struct {
	Job
	// class is the admission class the job entered through Offer, plus one;
	// zero for jobs submitted directly, which never entered admission.
	class int32
	// slot is the job's position in assigned[Job.Machine] while it is
	// Starting, Running or Stopping.
	slot int32
}

// slab holds records by value, index == order of arrival, in fixed-size
// chunks: growth never copies or moves a record, so adding stays O(1) at a
// million records, a *T stays valid for good, and nothing is sized in
// advance. The job slab (job id == index) and each agent's jobRun records
// live in one.
type slab[T any] struct {
	chunks [][]T
	n      int
}

const slabChunk = 256

func (s *slab[T]) at(i int) *T { return &s.chunks[i/slabChunk][i%slabChunk] }

// add appends a zero record and returns it; its index is the previous n.
func (s *slab[T]) add() *T {
	if s.n%slabChunk == 0 {
		s.chunks = append(s.chunks, make([]T, 0, slabChunk))
	}
	c := &s.chunks[len(s.chunks)-1]
	var zero T
	*c = append(*c, zero)
	s.n++
	return &(*c)[len(*c)-1]
}

// MachineView is the control plane's model of one machine: liveness as
// detected (not ground truth — a dead machine stays Alive until the failure
// detector fires) and the assigned-job count the placers balance on.
type MachineView struct {
	ID       int
	Alive    bool
	CPUs     int
	Assigned int
}

// jobScheduler is the control plane: desired state, reconciliation, and the
// job state machine. All methods run on the control-plane engine.
type jobScheduler struct {
	c      *Cluster
	placer Placer
	jobs   slab[jobRec] // job id == index
	view   []MachineView
	// assigned[m] lists the jobs placed on machine m (Starting, Running or
	// Stopping there), unordered; len(assigned[m]) == view[m].Assigned.
	// Failover and rebalancing walk it instead of every job ever submitted.
	assigned [][]int
	queue    []int // Pending job ids awaiting placement, FIFO
	live     int   // jobs not yet Done
	// ticking is true while a reconcile tick is armed; ticks re-arm only
	// while there is schedulable work, so an idle cluster goes quiescent
	// and RunUntilIdle terminates.
	ticking bool

	placeHist stats.LogHist // submit → first running ack
	e2eHist   stats.LogHist // submit → done

	// doneByMachine counts completions per machine; the rollout verdicts
	// difference it across a soak window for per-machine completion rates.
	doneByMachine []int

	starts, stops, migrations, lost, done int
}

func newJobScheduler(c *Cluster) *jobScheduler {
	s := &jobScheduler{c: c, placer: c.cfg.Placer}
	for i, m := range c.machines {
		s.view = append(s.view, MachineView{ID: i, Alive: true, CPUs: m.sk.Machine().NumCPUs})
	}
	s.doneByMachine = make([]int, len(c.machines))
	s.assigned = make([][]int, len(c.machines))
	return s
}

func (s *jobScheduler) anyAlive() bool {
	for i := range s.view {
		if s.view[i].Alive {
			return true
		}
	}
	return false
}

// assign records job id as placed on machine mi; unassign removes it
// (swap-with-last, so both are O(1)).
func (s *jobScheduler) assign(id, mi int) {
	s.jobs.at(id).slot = int32(len(s.assigned[mi]))
	s.assigned[mi] = append(s.assigned[mi], id)
	s.view[mi].Assigned++
}

func (s *jobScheduler) unassign(id, mi int) {
	list := s.assigned[mi]
	slot, last := s.jobs.at(id).slot, list[len(list)-1]
	list[slot] = last
	s.jobs.at(last).slot = slot
	s.assigned[mi] = list[:len(list)-1]
	s.view[mi].Assigned--
}

// arm schedules a reconcile tick if none is pending.
func (s *jobScheduler) arm() {
	if s.ticking || s.c.closed {
		return
	}
	s.ticking = true
	s.c.ctrl.Post(ktime.Duration(s.c.cfg.ReconcileEvery), s.tick)
}

// tick is the reconcile loop body. It re-arms itself while live jobs remain
// and at least one machine is alive; otherwise the control plane goes
// quiescent until a Submit or failure-detection event re-arms it.
func (s *jobScheduler) tick() {
	s.ticking = false
	s.reconcile()
	if s.live > 0 && s.anyAlive() {
		s.arm()
	}
}

// reconcile drives actual state toward desired state: rebalance migrations
// first (they create new desired placements), then place every queued
// Pending job.
func (s *jobScheduler) reconcile() {
	s.maybeRebalance()
	if len(s.queue) == 0 {
		return
	}
	q := s.queue
	s.queue = s.queue[:0]
	s.c.fl.Reserve(s.c.ctrlSrc, len(q)) // at most one start each
	for _, id := range q {
		j := &s.jobs.at(id).Job
		if j.State != JobPending {
			continue // stale queue entry; the state machine moved on
		}
		target := j.Desired
		if target < 0 || !s.view[target].Alive {
			target = s.placer.Pick(j, s.view)
		}
		if target < 0 || !s.view[target].Alive {
			s.queue = append(s.queue, id) // nowhere to go; retry next tick
			continue
		}
		j.Desired = target
		s.start(j, target)
	}
}

// maybeRebalance migrates one job per tick from the most to the least
// loaded machine when the assigned-count spread exceeds the configured
// threshold. One per tick keeps the control loop gentle and the decision
// sequence trivially deterministic.
func (s *jobScheduler) maybeRebalance() {
	spread := s.c.cfg.RebalanceSpread
	if spread <= 0 {
		return
	}
	hi, lo := -1, -1
	for m := range s.view {
		v := &s.view[m]
		if !v.Alive {
			continue
		}
		if hi == -1 || v.Assigned > s.view[hi].Assigned {
			hi = m
		}
		if lo == -1 || v.Assigned < s.view[lo].Assigned {
			lo = m
		}
	}
	if hi == -1 || lo == -1 || hi == lo || s.view[hi].Assigned-s.view[lo].Assigned <= spread {
		return
	}
	// Lowest-id Running job on the overloaded machine migrates.
	pick := -1
	for _, id := range s.assigned[hi] {
		if s.jobs.at(id).State == JobRunning && (pick == -1 || id < pick) {
			pick = id
		}
	}
	if pick >= 0 {
		j := &s.jobs.at(pick).Job
		j.Desired = lo
		s.migrations++
		s.stop(j)
	}
}

// start sends a start operation to machine mi: the transformer's "create"
// op. The job's shard is derived from its id so placement inside a machine
// is deterministic and spread across NUMA nodes.
func (s *jobScheduler) start(j *Job, mi int) {
	c := s.c
	m := c.machines[mi]
	j.State = JobStarting
	j.Machine = mi
	j.Shard = j.ID % m.sk.NumShards()
	s.assign(j.ID, mi)
	s.starts++
	j.startSent = c.ctrl.Now()
	// Everything the agent needs travels by value: machine workers never
	// read the job slab, which a Submit from a control-plane event may be
	// growing while they run.
	at := c.ctrl.Now().Add(ktime.Duration(c.cfg.NetLatency))
	c.fl.SendMsg(c.ctrlSrc, m.node, at, sim.Msg{
		Kind: msgStart, Shard: int32(j.Shard), A: int32(j.ID), B: int32(j.CyclesLeft),
		X: int64(j.Spec.Run), Y: int64(j.Spec.Sleep), S: j.Spec.Name,
	})
}

// stop sends a cooperative stop toward a Running job: the migration path.
// The machine checkpoints remaining cycles at the next cycle boundary and
// reports back; onStopped requeues the job toward its Desired machine.
func (s *jobScheduler) stop(j *Job) {
	c := s.c
	m := c.machines[j.Machine]
	j.State = JobStopping
	s.stops++
	at := c.ctrl.Now().Add(ktime.Duration(c.cfg.NetLatency))
	c.fl.SendMsg(c.ctrlSrc, m.node, at, sim.Msg{Kind: msgStop, Shard: int32(j.Shard), A: int32(j.ID)})
}

// onStarted handles a machine's spawn acknowledgement. Guards drop stale
// acks: a machine that died after acking (job already requeued elsewhere)
// must not resurrect the old placement.
func (s *jobScheduler) onStarted(id, mi int) {
	j := &s.jobs.at(id).Job
	if j.State != JobStarting || j.Machine != mi {
		return
	}
	j.State = JobRunning
	if !j.placed {
		j.placed = true
		j.StartedAt = s.c.ctrl.Now()
		s.placeHist.Record(time.Duration(j.StartedAt - j.SubmittedAt))
	}
	if r := s.c.rollout; r != nil {
		r.noteStartAck(mi, time.Duration(s.c.ctrl.Now()-j.startSent))
	}
}

// onDone handles a completion report. A job may complete while Stopping — a
// migration raced with the final cycle and the job won; that counts as done,
// not as a migration.
func (s *jobScheduler) onDone(id, mi int) {
	j := &s.jobs.at(id).Job
	if j.State == JobDone || j.Machine != mi {
		return
	}
	s.unassign(id, mi)
	s.doneByMachine[mi]++
	j.State = JobDone
	j.CyclesLeft = 0
	j.DoneAt = s.c.ctrl.Now()
	s.e2eHist.Record(time.Duration(j.DoneAt - j.SubmittedAt))
	s.done++
	s.live--
	s.c.jobDone(id)
}

// onStopped handles a migration checkpoint: the job left machine mi with
// cyclesLeft cycles to go and is requeued toward its Desired machine.
func (s *jobScheduler) onStopped(id, mi, cyclesLeft int) {
	j := &s.jobs.at(id).Job
	if j.State != JobStopping || j.Machine != mi {
		return
	}
	s.unassign(id, mi)
	j.CyclesLeft = cyclesLeft
	j.State = JobPending
	j.Machine = -1
	j.Migrations++
	s.queue = append(s.queue, id)
	s.arm()
}

// machineDead is the failure detector's verdict: mark the machine dead and
// requeue every job that was placed there from its last checkpoint. Reports
// already in flight from the victim were sent before the kill instant and
// remain valid; the state-machine guards (Machine == mi checks against a
// machine the job no longer occupies) reject anything stale.
func (s *jobScheduler) machineDead(mi int) {
	if !s.view[mi].Alive {
		return
	}
	s.view[mi].Alive = false
	s.view[mi].Assigned = 0
	// Every placement on the machine goes back to the queue in ascending
	// job-id order; after that every Pending job is in the queue, which is
	// where to find the ones still aimed at the dead machine.
	lost := s.assigned[mi]
	s.assigned[mi] = nil
	slices.Sort(lost)
	for _, id := range lost {
		j := &s.jobs.at(id).Job
		j.State = JobPending
		j.Machine = -1
		j.Restarts++
		s.lost++
		s.queue = append(s.queue, id)
	}
	for _, id := range s.queue {
		if j := s.jobs.at(id); j.State == JobPending && j.Desired == mi {
			j.Desired = -1
		}
	}
	s.arm()
	if r := s.c.rollout; r != nil {
		r.machineDead(mi)
	}
}
