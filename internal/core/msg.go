package core

import (
	"fmt"
	"time"
)

// Kind identifies which trait function a Message invokes. The numbering is
// part of the record-log format.
type Kind int

// Message kinds. The first block are scheduler calls replayed through
// Dispatch; the second block are control-plane events the record log also
// carries (queue registration, hint pushes, lock operations are logged
// separately as LockEvents).
const (
	MsgInvalid Kind = iota
	MsgPickNextTask
	MsgPntErr
	MsgTaskDead
	MsgTaskBlocked
	MsgTaskWakeup
	MsgTaskNew
	MsgTaskPreempt
	MsgTaskYield
	MsgTaskDeparted
	MsgTaskAffinityChanged
	MsgTaskPrioChanged
	MsgTaskTick
	MsgSelectTaskRQ
	MsgMigrateTaskRQ
	MsgBalance
	MsgBalanceErr
	MsgEnterQueue
	MsgParseHint

	MsgRegisterQueue
	MsgRegisterRevQueue
	MsgUnregisterQueue
	MsgUnregisterRevQueue
	MsgHintPush
	MsgModuleFault
)

var kindNames = map[Kind]string{
	MsgPickNextTask:        "pick_next_task",
	MsgPntErr:              "pnt_err",
	MsgTaskDead:            "task_dead",
	MsgTaskBlocked:         "task_blocked",
	MsgTaskWakeup:          "task_wakeup",
	MsgTaskNew:             "task_new",
	MsgTaskPreempt:         "task_preempt",
	MsgTaskYield:           "task_yield",
	MsgTaskDeparted:        "task_departed",
	MsgTaskAffinityChanged: "task_affinity_changed",
	MsgTaskPrioChanged:     "task_prio_changed",
	MsgTaskTick:            "task_tick",
	MsgSelectTaskRQ:        "select_task_rq",
	MsgMigrateTaskRQ:       "migrate_task_rq",
	MsgBalance:             "balance",
	MsgBalanceErr:          "balance_err",
	MsgEnterQueue:          "enter_queue",
	MsgParseHint:           "parse_hint",
	MsgRegisterQueue:       "register_queue",
	MsgRegisterRevQueue:    "register_reverse_queue",
	MsgUnregisterQueue:     "unregister_queue",
	MsgUnregisterRevQueue:  "unregister_rev_queue",
	MsgHintPush:            "hint_push",
	MsgModuleFault:         "module_fault",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Message is the per-function "message" data structure of §3.1: Enoki-C
// pulls the fields the call needs from kernel data structures, places them
// here, and hands the message to libEnoki's processing function (Dispatch),
// which calls the scheduler and writes any return value back in. Because
// every argument and reply crosses in this one flat struct, recording the
// message stream is sufficient to replay the scheduler exactly.
type Message struct {
	Kind   Kind
	Seq    uint64
	Thread int   // kernel thread identity (CPU id; -1 for user context)
	Now    int64 // virtual time, ns

	PID        int
	CPU        int
	Runtime    time.Duration
	LastCPU    int
	WakeCPU    int
	NewCPU     int
	PrevCPU    int
	Prio       int
	Runnable   bool
	Wakeup     bool
	Deferrable bool
	Queued     bool
	Preempted  bool
	ErrCode    int
	BalancePID uint64
	QueueID    int
	Count      int
	Allowed    []int
	Hint       Hint
	Sched      *SchedulableRef

	// Reply fields, written by Dispatch.
	RetSched *SchedulableRef
	RetCPU   int
	RetPID   uint64
	RetOK    bool

	// Live-path token plumbing: the actual token objects, which never
	// enter the record log (unexported ⇒ skipped by gob).
	schedObj    *Schedulable
	retSchedObj *Schedulable

	// retQueue carries the *HintQueue / *RevQueue an unregister call
	// returned; like the tokens it is live-path only and never recorded.
	retQueue any

	// Inline backing storage for Sched/RetSched and the replay-path token.
	// AttachSched/setRet point the exported ref pointers here so building a
	// message allocates nothing; Clone re-points them into the copy.
	schedRef  SchedulableRef
	retRef    SchedulableRef
	replayTok Schedulable
}

// Reset clears the message for reuse, keeping the Allowed backing array so a
// pooled message re-fills it without allocating. It clears every field the
// record log or Dispatch can see and nothing else: the inline ref and token
// buffers are scratch that only counts while Sched/RetSched point into it,
// and assigning `Message{}` to this pointerful struct costs a typed clear of
// all ~330 bytes on every crossing. Pointer fields are cleared only when
// set — most kinds set none or one — because each pointer store pays a write
// barrier whenever the collector is marking.
func (m *Message) Reset() {
	m.Kind, m.Seq, m.Thread, m.Now = 0, 0, 0, 0
	m.PID, m.CPU, m.Runtime = 0, 0, 0
	m.LastCPU, m.WakeCPU, m.NewCPU, m.PrevCPU, m.Prio = 0, 0, 0, 0, 0
	m.Runnable, m.Wakeup, m.Deferrable, m.Queued, m.Preempted = false, false, false, false, false
	m.ErrCode, m.BalancePID, m.QueueID, m.Count = 0, 0, 0, 0
	m.Allowed = m.Allowed[:0]
	m.RetCPU, m.RetPID, m.RetOK = 0, 0, false
	if m.Sched != nil || m.schedObj != nil {
		m.Sched, m.schedObj = nil, nil
	}
	if m.RetSched != nil || m.retSchedObj != nil {
		m.RetSched, m.retSchedObj = nil, nil
	}
	if m.Hint != nil || m.retQueue != nil {
		m.Hint, m.retQueue = nil, nil
	}
}

// Clone returns a deep snapshot safe to retain after the original is Reset
// or recycled: the ref pointers are re-pointed at the clone's inline buffers
// and the Allowed slice is copied. Live token objects do not travel — clones
// exist for record logs, which carry only the wire fields.
func (m *Message) Clone() *Message {
	cp := *m
	if m.Sched != nil {
		cp.schedRef = *m.Sched
		cp.Sched = &cp.schedRef
	}
	if m.RetSched != nil {
		cp.retRef = *m.RetSched
		cp.RetSched = &cp.retRef
	}
	if len(m.Allowed) > 0 {
		cp.Allowed = append([]int(nil), m.Allowed...)
	} else {
		cp.Allowed = nil
	}
	cp.schedObj = nil
	cp.retSchedObj = nil
	cp.retQueue = nil
	return &cp
}

// AttachSched sets the live token object the call delivers to the module.
func (m *Message) AttachSched(s *Schedulable) {
	m.schedObj = s
	if s == nil {
		m.Sched = nil
		return
	}
	m.schedRef = SchedulableRef{PID: s.PID(), CPU: s.CPU(), Gen: s.gen}
	m.Sched = &m.schedRef
}

// TakeRetSched returns the token object the module handed back.
func (m *Message) TakeRetSched() *Schedulable { return m.retSchedObj }

// AttachedSched returns the live token attached with AttachSched (nil when
// the message carries none). The framework uses it to audit queued messages
// — e.g. dropping a deferred notification whose proof was superseded while
// it waited out an upgrade blackout.
func (m *Message) AttachedSched() *Schedulable { return m.schedObj }

// TakeRetQueue returns the queue object an unregister call handed back
// (*HintQueue or *RevQueue, possibly nil if the module lost it).
func (m *Message) TakeRetQueue() any { return m.retQueue }

// inSched returns the token to pass to the module: the live object when the
// framework attached one, otherwise a token materialised from the recorded
// ref into the message's inline scratch slot (replay path — each replayed
// message is a fresh copy, so a module retaining the token is safe).
func (m *Message) inSched() *Schedulable {
	if m.schedObj != nil {
		return m.schedObj
	}
	if m.Sched == nil {
		return nil
	}
	m.replayTok = token(m.Sched.PID, m.Sched.CPU, m.Sched.Gen, nil)
	return &m.replayTok
}

func (m *Message) setRet(s *Schedulable) {
	m.retSchedObj = s
	if s == nil {
		m.RetSched = nil
		return
	}
	m.retRef = SchedulableRef{PID: s.PID(), CPU: s.CPU(), Gen: s.gen}
	m.RetSched = &m.retRef
}

// Dispatch is libEnoki's processing function: it parses the message,
// invokes the corresponding trait function on the scheduler, and writes the
// return value back into the message. The live kernel path and userspace
// replay both go through this one function, which is what guarantees "the
// exact same scheduler code is run during both record and replay" (§3.4).
func Dispatch(s Scheduler, m *Message) {
	switch m.Kind {
	case MsgPickNextTask:
		m.setRet(s.PickNextTask(m.CPU, m.inSched(), m.Runtime))
	case MsgPntErr:
		s.PntErr(m.CPU, m.PID, PickError(m.ErrCode), m.inSched())
	case MsgTaskDead:
		s.TaskDead(m.PID)
	case MsgTaskBlocked:
		s.TaskBlocked(m.PID, m.Runtime, m.CPU)
	case MsgTaskWakeup:
		s.TaskWakeup(m.PID, m.Runtime, m.Deferrable, m.LastCPU, m.WakeCPU, m.inSched())
	case MsgTaskNew:
		s.TaskNew(m.PID, m.Runtime, m.Runnable, m.Allowed, m.inSched())
	case MsgTaskPreempt:
		s.TaskPreempt(m.PID, m.Runtime, m.CPU, m.Preempted, m.inSched())
	case MsgTaskYield:
		s.TaskYield(m.PID, m.Runtime, m.CPU, m.inSched())
	case MsgTaskDeparted:
		m.setRet(s.TaskDeparted(m.PID, m.CPU))
	case MsgTaskAffinityChanged:
		s.TaskAffinityChanged(m.PID, m.Allowed)
	case MsgTaskPrioChanged:
		s.TaskPrioChanged(m.PID, m.Prio)
	case MsgTaskTick:
		s.TaskTick(m.CPU, m.Queued, m.PID, m.Runtime)
	case MsgSelectTaskRQ:
		m.RetCPU = s.SelectTaskRQ(m.PID, m.PrevCPU, m.Wakeup)
	case MsgMigrateTaskRQ:
		m.setRet(s.MigrateTaskRQ(m.PID, m.NewCPU, m.inSched()))
	case MsgBalance:
		m.RetPID, m.RetOK = s.Balance(m.CPU)
	case MsgBalanceErr:
		s.BalanceErr(m.CPU, m.BalancePID, m.inSched())
	case MsgEnterQueue:
		s.EnterQueue(m.QueueID, m.Count)
	case MsgParseHint:
		s.ParseHint(m.Hint)
	case MsgUnregisterQueue:
		m.retQueue = s.UnregisterQueue(m.QueueID)
	case MsgUnregisterRevQueue:
		m.retQueue = s.UnregisterRevQueue(m.QueueID)
	default:
		panic(fmt.Sprintf("core: Dispatch of non-dispatchable message %v", m.Kind))
	}
}

// LockOp is a lock lifecycle event kind in the record log.
type LockOp int

// Lock operations.
const (
	LockCreate LockOp = iota + 1
	LockAcquire
	LockRelease
)

func (op LockOp) String() string {
	switch op {
	case LockCreate:
		return "create"
	case LockAcquire:
		return "acquire"
	case LockRelease:
		return "release"
	default:
		return "invalid"
	}
}

// LockEvent records one lock operation: which lock (by framework-assigned
// id, the analogue of the paper's lock address), which kernel thread, and
// what happened. Replaying acquisitions in id order per lock reproduces the
// scheduler's synchronisation schedule (§3.4).
type LockEvent struct {
	Op     LockOp
	LockID int
	Name   string
	Thread int
	Seq    uint64
}

// Recorder receives the record stream. The live implementation
// (internal/record) pushes into a ring buffer drained by a userspace writer
// task; tests use in-memory recorders.
type Recorder interface {
	// RecordMessage logs a completed scheduler message (reply included).
	RecordMessage(m *Message)
	// RecordLock logs a lock lifecycle event.
	RecordLock(ev LockEvent)
}
