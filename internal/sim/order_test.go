package sim

import (
	"fmt"
	"testing"
	"time"

	"enoki/internal/ktime"
)

// TestSmsgOrderTotal is the ordering audit's property test: for random
// message populations (including heavy collisions on at/to/from, and closure
// and value messages mixed within one source), every arrival interleaving
// must merge to the same sequence, and no two distinct messages may compare
// equal under the (at, to, from, seq) order — totality is what makes the
// serial and parallel drives byte-identical, and it holds only because
// per-source seq counters are unique for the executor's life. The merge
// under test is the executors' own: mailroom.collect, with part of the
// population already pending so the fold runs too.
func TestSmsgOrderTotal(t *testing.T) {
	rng := ktime.NewRand(0xf1ee7)
	nop := func() {}
	for round := 0; round < 50; round++ {
		// Build a population the way executors do: per-source monotonic
		// sequences, clustered timestamps and destinations so ties on
		// (at, to) and (at, to, from) are common.
		nsrc := 2 + int(rng.Intn(5))
		seqs := make([]uint64, nsrc)
		n := 20 + int(rng.Intn(200))
		msgs := make([]smsg, 0, n)
		for i := 0; i < n; i++ {
			src := rng.Intn(nsrc)
			seqs[src]++
			m := smsg{mkey: mkey{
				at:   ktime.Time(rng.Intn(8)), // few instants → many ties
				to:   int32(rng.Intn(3)),
				from: int32(src),
				seq:  seqs[src],
			}}
			if rng.Intn(2) == 0 {
				m.fn = nop
			} else {
				m.msg = Msg{Kind: 1, A: int32(i)}
			}
			msgs = append(msgs, m)
		}
		key := func(m smsg) string {
			return fmt.Sprintf("%d/%d/%d/%d/%v/%d", m.at, m.to, m.from, m.seq, m.fn != nil, m.msg.A)
		}

		// Totality: distinct messages never compare equal both ways.
		for i := range msgs {
			for j := range msgs {
				if i != j && msgs[i].cmp(msgs[j].mkey) == 0 {
					t.Fatalf("round %d: messages %s and %s are order-equal", round, key(msgs[i]), key(msgs[j]))
				}
			}
		}

		// merge files the population in the given arrival order — the first
		// third through an earlier collect, so it is the sorted prefix the
		// rest folds into — and returns the pending set.
		merge := func(arrival []smsg) []smsg {
			var r mailroom
			for i := 0; i < nsrc; i++ {
				r.addSource()
			}
			for i, m := range arrival {
				if i == len(arrival)/3 {
					r.collect()
				}
				r.out[m.from] = append(r.out[m.from], m)
			}
			r.collect()
			return r.pending
		}

		// Shuffle-invariance: every delivery interleaving sorts identically.
		ref := merge(msgs)
		if len(ref) != len(msgs) {
			t.Fatalf("round %d: merged %d of %d messages", round, len(ref), len(msgs))
		}
		for i := 1; i < len(ref); i++ {
			if ref[i-1].cmp(ref[i].mkey) >= 0 {
				t.Fatalf("round %d: merge left %s before %s", round, key(ref[i-1]), key(ref[i]))
			}
		}
		for shuffle := 0; shuffle < 8; shuffle++ {
			got := make([]smsg, len(msgs))
			copy(got, msgs)
			for i := len(got) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				got[i], got[j] = got[j], got[i]
			}
			got = merge(got)
			for i := range ref {
				if key(ref[i]) != key(got[i]) {
					t.Fatalf("round %d shuffle %d: position %d has %s, reference %s",
						round, shuffle, i, key(got[i]), key(ref[i]))
				}
			}
		}
	}
}

// TestSmsgSeqResetWouldBreakTotality documents why the audit matters: with a
// (hypothetically) reset sequence counter, two distinct messages from one
// source collide and the order stops being total. The assertion is inverted
// — it proves the property test above would catch the regression.
func TestSmsgSeqResetWouldBreakTotality(t *testing.T) {
	a := mkey{at: 5, to: 1, from: 0, seq: 1}
	b := mkey{at: 5, to: 1, from: 0, seq: 1} // same seq: what a per-epoch reset would produce
	if a.cmp(b) != 0 {
		t.Fatal("expected order-equality for colliding seq — the totality check depends on it")
	}
	b.seq = 2
	if a.cmp(b) >= 0 || b.cmp(a) <= 0 {
		t.Fatal("monotonic seq must order same-(at,to,from) messages")
	}
}

// TestShardedSeqMonotonicAcrossEpochs pins the no-reset property on the real
// executor: two messages submitted from the same shard in different epochs
// (and different RunUntil calls), due at the same instant at the same
// destination, must deliver in submission order — which holds only if the
// sender's seq counter survives epoch merges and run boundaries.
func TestShardedSeqMonotonicAcrossEpochs(t *testing.T) {
	la := 5 * time.Microsecond
	s := NewSharded(2, la)
	defer s.Close()
	var log []string
	target := ktime.Time(0).Add(ktime.Duration(100 * time.Microsecond))
	// Epoch 1 (first run window): shard 1 sends "first" due at 100µs.
	s.Shard(1).Post(2*time.Microsecond, func() {
		s.Send(1, 0, target, func() { log = append(log, "first") })
	})
	s.RunUntil(ktime.Time(0).Add(ktime.Duration(20 * time.Microsecond)))
	// Later epoch, separate run: shard 1 sends "second", same (at, to, from).
	s.Shard(1).Post(20*time.Microsecond, func() {
		s.Send(1, 0, target, func() { log = append(log, "second") })
	})
	s.RunUntilIdle()
	if fmt.Sprint(log) != "[first second]" {
		t.Fatalf("cross-epoch same-instant delivery order %v, want [first second]", log)
	}
	if s.MsgsSent() != 2 || s.MsgsDelivered() != 2 {
		t.Fatalf("sent/delivered = %d/%d, want 2/2", s.MsgsSent(), s.MsgsDelivered())
	}

	// The injection source's counter is one sequence for closures and
	// values alike: interleaved at one instant on one shard, across two
	// runs, they deliver in injection order.
	log = log[:0]
	s.SetMsgHandler(func(shard int, m *Msg) { log = append(log, fmt.Sprintf("value %d", m.A)) })
	target = s.Now().Add(ktime.Duration(50 * time.Microsecond))
	s.Inject(0, target, func() { log = append(log, "closure a") })
	s.AcceptMsg(target, &Msg{Kind: 1, Shard: 0, A: 1})
	s.RunUntil(s.Now().Add(ktime.Duration(10 * time.Microsecond)))
	s.AcceptMsg(target, &Msg{Kind: 1, Shard: 0, A: 2})
	s.Inject(0, target, func() { log = append(log, "closure b") })
	s.RunUntilIdle()
	if fmt.Sprint(log) != "[closure a value 1 value 2 closure b]" {
		t.Fatalf("interleaved closure/value delivery order %v", log)
	}
}

// sinkNode is an Engine that accepts value messages the way a real node
// does: it queues the payload on itself for the delivery instant.
type sinkNode struct {
	*Engine
	got func(m Msg)
}

func (n sinkNode) AcceptMsg(at ktime.Time, m *Msg) {
	msg := *m
	n.PostAt(at, func() { n.got(msg) })
}

// TestFleetSeqMonotonicAcrossRuns is the same pin one level up, on the
// fleet executor's per-source counters.
func TestFleetSeqMonotonicAcrossRuns(t *testing.T) {
	f := NewFleet(10 * time.Microsecond)
	defer f.Close()
	e0, e1 := New(), New()
	f.AddNode(e0)
	f.AddNode(e1)
	src := f.AddSource(0)
	var log []string
	target := ktime.Time(0).Add(ktime.Duration(200 * time.Microsecond))
	e0.Post(time.Microsecond, func() {
		f.Send(src, 1, target, func() { log = append(log, "first") })
	})
	f.RunUntil(ktime.Time(0).Add(ktime.Duration(50 * time.Microsecond)))
	e0.Post(10*time.Microsecond, func() { // fires at 60µs, a later fleet run
		f.Send(src, 1, target, func() { log = append(log, "second") })
	})
	f.RunUntilIdle()
	if fmt.Sprint(log) != "[first second]" {
		t.Fatalf("cross-run same-instant commitment order %v, want [first second]", log)
	}
}

// TestFleetValueAndClosureShareSeq: value messages ride the same per-source
// sequence as closure messages, so a source that mixes the three send calls
// at one instant toward one node sees them commit in send order — and the
// sink gets the payload intact, operands and string included.
func TestFleetValueAndClosureShareSeq(t *testing.T) {
	f := NewFleet(10 * time.Microsecond)
	defer f.Close()
	var log []string
	dst := sinkNode{Engine: New(), got: func(m Msg) {
		log = append(log, fmt.Sprintf("value %d/%d/%d/%d/%d/%s", m.Kind, m.Shard, m.A, m.B, m.X+m.Y, m.S))
	}}
	f.AddNode(New())
	to := f.AddNode(dst)
	src := f.AddSource(0)
	at := ktime.Time(0).Add(ktime.Duration(100 * time.Microsecond))
	post := func(s string) func() { return func() { dst.PostAt(at, func() { log = append(log, s) }) } }
	f.SendHandoff(src, to, at, post("handoff"))
	f.SendMsg(src, to, at, Msg{Kind: 7, Shard: 3, A: 1, B: 2, X: 30, Y: 4, S: "job"})
	f.Send(src, to, at, post("floor"))
	f.SendMsg(src, to, at, Msg{Kind: 8, A: 2})
	f.RunUntilIdle()
	want := "[handoff value 7/3/1/2/34/job floor value 8/0/2/0/0/]"
	if fmt.Sprint(log) != want {
		t.Fatalf("commitment order %v, want %s", log, want)
	}
	if f.MsgsSent() != 4 || f.MsgsDelivered() != 4 {
		t.Fatalf("sent/delivered = %d/%d, want 4/4", f.MsgsSent(), f.MsgsDelivered())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SendMsg to a node that is no MsgSink did not panic")
		}
	}()
	f.SendMsg(src, 0, at.Add(ktime.Duration(time.Millisecond)), Msg{Kind: 1})
}
