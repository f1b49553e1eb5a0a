package core

import "fmt"

// Schedulable is proof that a task may run on a particular CPU (§3.1). The
// framework (internal/enokic) issues one whenever a task becomes runnable on
// a run queue — at task_new, task_wakeup, task_preempt, task_yield, and
// migrate_task_rq — and the scheduler must hand it back as the return value
// of pick_next_task before the kernel will run the task on that CPU.
//
// In the paper this type is affine: Rust's type system forbids copying or
// cloning it, so a scheduler cannot retain stale proof. Go has no move
// semantics, so the same property is enforced at runtime instead: each token
// carries a generation number, the framework invalidates the generation when
// the token is consumed, and a stale or foreign token at pick_next_task
// fails validation and bounces back through pnt_err. The bug class the paper
// catches at compile time is caught here before the kernel acts on it.
type Schedulable struct {
	// origin points back at the issuing framework's record of the task, so
	// validating a returned token reads that record through the token instead
	// of looking the pid up. Nil on tokens nobody issued: replayed, test-built
	// and forged ones. It is a pointer to a cell, not an interface, and pid
	// and cpu are as narrow as the trace's, to hold the token at 24 bytes —
	// tokens are the one thing a crossing still allocates.
	origin   *Origin
	gen      uint64
	pid      int32
	cpu      int16
	consumed bool
}

// Origin is the cell a framework-issued token points back to. The framework
// embeds one in its per-task record, stores that record in it, and clears it
// when the task leaves; from then on every outstanding token of the task
// resolves to nothing.
type Origin struct{ Record any }

// NewSchedulable constructs a token. Only the replay runtime reconstructing
// recorded tokens (and tests) should call this; a scheduler forging tokens
// is outside Enoki's "trusted but clumsy" threat model and will fail
// generation validation anyway.
func NewSchedulable(pid, cpu int, gen uint64) *Schedulable {
	s := token(pid, cpu, gen, nil)
	return &s
}

func token(pid, cpu int, gen uint64, origin *Origin) Schedulable {
	return Schedulable{origin: origin, gen: gen, pid: int32(pid), cpu: int16(cpu)}
}

// tokenChunk is how many tokens one TokenArena allocation backs.
const tokenChunk = 256

// TokenArena is where the live framework draws the tokens it issues: chunked
// backing arrays, one allocation per tokenChunk tokens. Slots are never
// reused. A token a buggy module kept past its return is still that token —
// consumed, or of a superseded generation — and fails validation exactly as
// a separately allocated one would; recycling would let it alias a live
// proof. The collector frees a chunk once no token in it is reachable.
type TokenArena struct{ chunk []Schedulable }

// Issue returns a fresh token pointing back at origin.
func (ar *TokenArena) Issue(pid, cpu int, gen uint64, origin *Origin) *Schedulable {
	if len(ar.chunk) == cap(ar.chunk) {
		ar.chunk = make([]Schedulable, 0, tokenChunk)
	}
	ar.chunk = append(ar.chunk, token(pid, cpu, gen, origin))
	return &ar.chunk[len(ar.chunk)-1]
}

// PID returns the task the token vouches for.
func (s *Schedulable) PID() int { return int(s.pid) }

// CPU returns the CPU the task may run on.
func (s *Schedulable) CPU() int { return int(s.cpu) }

// Gen returns the token's generation.
func (s *Schedulable) Gen() uint64 { return s.gen }

// Origin returns the issuing framework's cell, or nil for a token that was
// not issued from a TokenArena.
func (s *Schedulable) Origin() *Origin { return s.origin }

// Consumed reports whether the token was already returned to the framework.
func (s *Schedulable) Consumed() bool { return s.consumed }

// Consume marks the token as spent. The framework calls this when the token
// crosses back; a consumed token never validates again.
func (s *Schedulable) Consume() { s.consumed = true }

// Ref returns the serialisable reference used in messages and record logs.
func (s *Schedulable) Ref() *SchedulableRef {
	if s == nil {
		return nil
	}
	return &SchedulableRef{PID: s.PID(), CPU: s.CPU(), Gen: s.gen}
}

// String renders the token for diagnostics.
func (s *Schedulable) String() string {
	if s == nil {
		return "Schedulable(nil)"
	}
	return fmt.Sprintf("Schedulable(pid=%d cpu=%d gen=%d)", s.pid, s.cpu, s.gen)
}

// SchedulableRef is the wire form of a Schedulable: what the record log and
// message structs carry across the (simulated) user/kernel boundary.
type SchedulableRef struct {
	PID int
	CPU int
	Gen uint64
}

// Equal compares two refs, treating nil as "no token".
func (r *SchedulableRef) Equal(o *SchedulableRef) bool {
	if r == nil || o == nil {
		return r == nil && o == nil
	}
	return r.PID == o.PID && r.CPU == o.CPU && r.Gen == o.Gen
}

// Materialize rebuilds a token object from the ref (used by replay).
func (r *SchedulableRef) Materialize() *Schedulable {
	if r == nil {
		return nil
	}
	return NewSchedulable(r.PID, r.CPU, r.Gen)
}
