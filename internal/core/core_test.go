package core

import (
	"reflect"
	"testing"
	"time"
)

func TestSchedulableLifecycle(t *testing.T) {
	s := NewSchedulable(42, 3, 7)
	if s.PID() != 42 || s.CPU() != 3 || s.Gen() != 7 {
		t.Fatalf("fields: %v", s)
	}
	if s.Consumed() {
		t.Fatal("fresh token consumed")
	}
	s.Consume()
	if !s.Consumed() {
		t.Fatal("Consume did not stick")
	}
}

func TestSchedulableRefRoundTrip(t *testing.T) {
	s := NewSchedulable(1, 2, 3)
	r := s.Ref()
	if !r.Equal(&SchedulableRef{PID: 1, CPU: 2, Gen: 3}) {
		t.Fatalf("ref = %+v", r)
	}
	m := r.Materialize()
	if m.PID() != 1 || m.CPU() != 2 || m.Gen() != 3 {
		t.Fatalf("materialized = %v", m)
	}
	var nilSched *Schedulable
	if nilSched.Ref() != nil {
		t.Fatal("nil token ref not nil")
	}
	var nilRef *SchedulableRef
	if nilRef.Materialize() != nil {
		t.Fatal("nil ref materialized")
	}
	if !nilRef.Equal(nil) || nilRef.Equal(r) {
		t.Fatal("nil ref equality wrong")
	}
	if nilSched.String() != "Schedulable(nil)" {
		t.Fatal("nil token String")
	}
}

// traceScheduler records which trait functions Dispatch invoked.
type traceScheduler struct {
	BaseScheduler
	calls []string
	lastS *Schedulable
}

func (s *traceScheduler) GetPolicy() int { return 9 }
func (s *traceScheduler) PickNextTask(cpu int, curr *Schedulable, rt time.Duration) *Schedulable {
	s.calls = append(s.calls, "pick")
	return NewSchedulable(5, cpu, 1)
}
func (s *traceScheduler) TaskNew(pid int, rt time.Duration, r bool, allowed []int, sc *Schedulable) {
	s.calls = append(s.calls, "new")
	s.lastS = sc
}
func (s *traceScheduler) TaskWakeup(pid int, rt time.Duration, d bool, l, w int, sc *Schedulable) {
	s.calls = append(s.calls, "wakeup")
	s.lastS = sc
}
func (s *traceScheduler) TaskPreempt(pid int, rt time.Duration, cpu int, preempted bool, sc *Schedulable) {
	s.calls = append(s.calls, "preempt")
}
func (s *traceScheduler) TaskYield(pid int, rt time.Duration, cpu int, sc *Schedulable) {
	s.calls = append(s.calls, "yield")
}
func (s *traceScheduler) TaskDeparted(pid, cpu int) *Schedulable {
	s.calls = append(s.calls, "departed")
	return nil
}
func (s *traceScheduler) SelectTaskRQ(pid, prev int, wakeup bool) int {
	s.calls = append(s.calls, "select")
	return prev + 1
}
func (s *traceScheduler) MigrateTaskRQ(pid, newCPU int, sc *Schedulable) *Schedulable {
	s.calls = append(s.calls, "migrate")
	return sc
}

func TestDispatchRoutesEveryKind(t *testing.T) {
	s := &traceScheduler{}
	cases := []struct {
		m    *Message
		want string
	}{
		{&Message{Kind: MsgPickNextTask, CPU: 2}, "pick"},
		{&Message{Kind: MsgTaskNew, PID: 1}, "new"},
		{&Message{Kind: MsgTaskWakeup, PID: 1}, "wakeup"},
		{&Message{Kind: MsgTaskPreempt, PID: 1}, "preempt"},
		{&Message{Kind: MsgTaskYield, PID: 1}, "yield"},
		{&Message{Kind: MsgTaskDeparted, PID: 1}, "departed"},
		{&Message{Kind: MsgSelectTaskRQ, PrevCPU: 3}, "select"},
		{&Message{Kind: MsgMigrateTaskRQ, PID: 1, NewCPU: 2}, "migrate"},
	}
	for _, c := range cases {
		before := len(s.calls)
		Dispatch(s, c.m)
		if len(s.calls) != before+1 || s.calls[len(s.calls)-1] != c.want {
			t.Fatalf("kind %v routed to %v, want %s", c.m.Kind, s.calls, c.want)
		}
	}
	// No-op base methods must be reachable without panic.
	for _, kind := range []Kind{
		MsgPntErr, MsgTaskDead, MsgTaskBlocked, MsgTaskAffinityChanged,
		MsgTaskPrioChanged, MsgTaskTick, MsgBalance, MsgBalanceErr,
		MsgEnterQueue, MsgParseHint,
	} {
		Dispatch(s, &Message{Kind: kind})
	}
}

func TestDispatchFillsReplies(t *testing.T) {
	s := &traceScheduler{}
	m := &Message{Kind: MsgPickNextTask, CPU: 4}
	Dispatch(s, m)
	if m.RetSched == nil || m.RetSched.PID != 5 || m.RetSched.CPU != 4 {
		t.Fatalf("RetSched = %+v", m.RetSched)
	}
	if m.TakeRetSched() == nil {
		t.Fatal("live token object missing")
	}
	m = &Message{Kind: MsgSelectTaskRQ, PrevCPU: 3}
	Dispatch(s, m)
	if m.RetCPU != 4 {
		t.Fatalf("RetCPU = %d", m.RetCPU)
	}
}

func TestDispatchMaterializesTokensFromRefs(t *testing.T) {
	// Replay path: no live object attached, only the recorded ref.
	s := &traceScheduler{}
	m := &Message{Kind: MsgTaskWakeup, PID: 7, Sched: &SchedulableRef{PID: 7, CPU: 2, Gen: 9}}
	Dispatch(s, m)
	if s.lastS == nil || s.lastS.PID() != 7 || s.lastS.Gen() != 9 {
		t.Fatalf("materialized token = %v", s.lastS)
	}
}

func TestDispatchAttachedObjectWins(t *testing.T) {
	s := &traceScheduler{}
	tok := NewSchedulable(7, 2, 9)
	m := &Message{Kind: MsgTaskNew, PID: 7}
	m.AttachSched(tok)
	Dispatch(s, m)
	if s.lastS != tok {
		t.Fatal("live token object not delivered")
	}
	if m.Sched == nil || m.Sched.Gen != 9 {
		t.Fatalf("ref not derived: %+v", m.Sched)
	}
}

func TestDispatchRejectsControlPlane(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("control-plane kind dispatched")
		}
	}()
	Dispatch(&traceScheduler{}, &Message{Kind: MsgRegisterQueue})
}

func TestHintQueue(t *testing.T) {
	q := NewHintQueue(2)
	if !q.Push("a") || !q.Push("b") || q.Push("c") {
		t.Fatal("capacity semantics broken")
	}
	if q.Dropped() != 1 || q.Len() != 2 {
		t.Fatalf("dropped=%d len=%d", q.Dropped(), q.Len())
	}
	got := q.Drain()
	if len(got) != 2 || got[0] != "a" {
		t.Fatalf("drain = %v", got)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty")
	}
}

func TestRevQueueObserver(t *testing.T) {
	q := NewRevQueue(4)
	var seen []RevMessage
	q.OnPush = func(m RevMessage) { seen = append(seen, m) }
	q.Push(1)
	q.Push(2)
	if len(seen) != 2 {
		t.Fatalf("observer saw %v", seen)
	}
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatalf("pop = %v", v)
	}
	if got := q.Drain(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("drain = %v", got)
	}
}

func TestKindStrings(t *testing.T) {
	if MsgPickNextTask.String() != "pick_next_task" {
		t.Fatal("kind name wrong")
	}
	if Kind(999).String() != "kind(999)" {
		t.Fatal("unknown kind formatting")
	}
	if LockAcquire.String() != "acquire" || LockCreate.String() != "create" || LockRelease.String() != "release" {
		t.Fatal("lock op names")
	}
	if PickWrongCPU.String() != "wrong-cpu" || PickStale.String() != "stale-schedulable" {
		t.Fatal("pick error names")
	}
}

// TestMessageResetClearsEveryWireField guards the field-by-field Reset: a
// field added to Message and forgotten there would leak one crossing's value
// into the next one's record entry. Every field but the inline scratch
// buffers is set by reflection, so the test needs no upkeep.
func TestMessageResetClearsEveryWireField(t *testing.T) {
	scratch := map[string]bool{"schedRef": true, "retRef": true, "replayTok": true}
	m := &Message{}
	m.AttachSched(NewSchedulable(1, 2, 3))
	m.setRet(NewSchedulable(4, 5, 6))
	m.retQueue = NewHintQueue(1)
	m.Hint = "hint"
	m.Allowed = []int{1, 2}
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Uint64:
			f.SetUint(7)
		case reflect.Bool:
			f.SetBool(true)
		}
	}
	m.Reset()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if f := v.Field(i); !scratch[name] && !(name == "Allowed" && f.Len() == 0) && !f.IsZero() {
			t.Errorf("Reset left %s = %v", name, f)
		}
	}
	if cap(m.Allowed) == 0 {
		t.Error("Reset dropped the Allowed backing array")
	}
}

// TestTokenArenaNeverReusesSlots: tokens come out of shared chunks, one
// allocation per tokenChunk of them, and no two issues ever return the same
// pointer — a retained token can not come to alias a later proof.
func TestTokenArenaNeverReusesSlots(t *testing.T) {
	if got := reflect.TypeOf(Schedulable{}).Size(); got != 24 {
		t.Errorf("Schedulable is %d bytes, want 24", got)
	}
	var ar TokenArena
	origin := &Origin{}
	seen := make(map[*Schedulable]bool)
	for i := 0; i < 4*tokenChunk+3; i++ {
		s := ar.Issue(i, i%8, uint64(i), origin)
		if seen[s] {
			t.Fatalf("issue %d returned a pointer already handed out", i)
		}
		seen[s] = true
		if s.PID() != i || s.CPU() != i%8 || s.Gen() != uint64(i) || s.Origin() != origin || s.Consumed() {
			t.Fatalf("issue %d: %v origin=%p", i, s, s.Origin())
		}
		s.Consume()
	}
	var warm TokenArena
	warm.Issue(0, 0, 0, nil)
	if avg := testing.AllocsPerRun(10*tokenChunk, func() { warm.Issue(1, 1, 1, origin) }); avg > 2.0/tokenChunk {
		t.Errorf("%v allocs per issue, want one per %d", avg, tokenChunk)
	}
}
