package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"enoki/internal/ktime"
)

// commitHub is the hub of commitStar: an engine that logs every commitment
// it receives, value or closure, with the fleet floor it was committed at,
// and promises silence until quiet.
type commitHub struct {
	*Engine
	f     *Fleet
	log   []string
	quiet ktime.Time
}

func (h *commitHub) QuietUntil() ktime.Time { return h.quiet }

func (h *commitHub) AcceptMsg(at ktime.Time, m *Msg) {
	h.log = append(h.log, fmt.Sprintf("value %d/%d/%d due %d @%d", m.Kind, m.A, m.B, at, h.f.Now()))
	msg := *m
	h.PostAt(at, func() { h.log = append(h.log, fmt.Sprintf("run value %d/%d @%d", msg.A, msg.B, h.Now())) })
}

// commitLeaf is a Sharded leaf that logs each value message when the fleet
// commits it and again when its shard runs it.
type commitLeaf struct {
	*Sharded
	f   *Fleet
	log *[]string
}

func (l commitLeaf) AcceptMsg(at ktime.Time, m *Msg) {
	*l.log = append(*l.log, fmt.Sprintf("value %d/%d due %d @%d", m.A, m.B, at, l.f.Now()))
	l.Sharded.AcceptMsg(at, m)
}

// commitEngineLeaf is commitLeaf for a plain engine, which never runs ahead.
type commitEngineLeaf struct {
	*Engine
	f   *Fleet
	log *[]string
}

func (l commitEngineLeaf) AcceptMsg(at ktime.Time, m *Msg) {
	*l.log = append(*l.log, fmt.Sprintf("value %d/%d due %d @%d", m.A, m.B, at, l.f.Now()))
}

// commitStar drives a hub and four leaves whose commitments collide: every
// leaf reports to the hub on a common 5µs grid — values and handoff closures
// at one instant, some a few µs later than the lookahead so a leaf's sends
// are not in due order — while the hub promises silence for the first
// 300µs, so the one-shard leaves run ahead and their reports wait for the
// replay. From 300µs the hub sends bursts to leaf 1, values and closures
// interleaved, and at 400µs a burst to leaf 2 with a floor Kill in its
// middle: what the burst sent before the Kill commits, the rest and every
// later message to leaf 2 is dropped. Leaf 3 has two shards, leaf 4 is a
// plain engine. It returns every destination's log, in commit order, and the
// fleet's counters.
func commitStar(parallel bool) (logs [][]string, epochs, delivered, dropped uint64) {
	const la = 10 * time.Microsecond
	f := NewFleet(la)
	f.SetParallel(parallel)
	hub := &commitHub{Engine: New(), f: f, quiet: ktime.Time(300 * time.Microsecond)}
	f.AddNode(hub)
	const leaves = 4
	logs = make([][]string, leaves+1)
	engs := make([]*Engine, leaves+1) // each leaf's sending engine
	for i := 1; i <= leaves; i++ {
		log := &logs[i]
		switch i {
		case 4:
			e := New()
			engs[i] = e
			f.AddNode(commitEngineLeaf{Engine: e, f: f, log: log})
		default:
			shards := 1
			if i == 3 {
				shards = 2
			}
			s := NewSharded(shards, 2*time.Microsecond)
			s.SetMsgHandler(func(shard int, m *Msg) {
				*log = append(*log, fmt.Sprintf("run value %d/%d on %d @%d", m.A, m.B, shard, s.Shard(shard).Now()))
			})
			engs[i] = s.Shard(shards - 1)
			f.AddNode(commitLeaf{Sharded: s, f: f, log: log})
		}
	}
	f.SetHub(0)

	// Leaf reports: on the 5µs grid until 600µs.
	for i := 1; i <= leaves; i++ {
		i, e := i, engs[i]
		k := 0
		var tick func()
		tick = func() {
			k++
			now := e.Now()
			if k%2 == 0 {
				f.SendMsg(i, 0, now.Add(la), Msg{Kind: 1, A: int32(i), B: int32(k)})
			}
			if k := k; k%3 == 0 {
				at := now.Add(la)
				f.SendHandoff(i, 0, at, func() {
					hub.log = append(hub.log, fmt.Sprintf("closure %d/%d due %d @%d", i, k, at, f.Now()))
				})
			}
			if k%4 == 0 {
				f.SendMsg(i, 0, now.Add(la+7*time.Microsecond), Msg{Kind: 2, A: int32(i), B: int32(k)})
			}
			if k < 120 {
				e.Post(5*time.Microsecond, tick)
			}
		}
		e.Post(5*time.Microsecond, tick)
	}

	// Hub bursts: to leaf 1 every 20µs from 300µs, to leaf 2 from 400µs.
	toLeaf := func(to, k int, at ktime.Time) {
		f.SendHandoff(0, to, at, func() {
			logs[to] = append(logs[to], fmt.Sprintf("closure %d due %d @%d", k, at, f.Now()))
		})
	}
	n := 0
	var burst func()
	burst = func() {
		now := hub.Now()
		at := now.Add(la)
		for j := 0; j < 3; j++ {
			n++
			f.SendMsg(0, 1, at, Msg{Kind: 3, A: 0, B: int32(n)})
			n++
			toLeaf(1, n, at)
		}
		n++
		f.SendMsg(0, 1, at.Add(5*time.Microsecond), Msg{Kind: 3, A: 0, B: int32(n)})
		if now >= ktime.Time(400*time.Microsecond) {
			n++
			f.SendMsg(0, 2, at, Msg{Kind: 3, A: 0, B: int32(n)})
			n++
			toLeaf(2, n, at)
			if now == ktime.Time(400*time.Microsecond) {
				f.Send(0, 2, at, func() {
					logs[2] = append(logs[2], fmt.Sprintf("kill @%d", f.Now()))
					f.Kill(2)
				})
			}
			n++
			f.SendMsg(0, 2, at, Msg{Kind: 3, A: 0, B: int32(n)})
			n++
			toLeaf(2, n, at)
		}
		if now < ktime.Time(500*time.Microsecond) {
			hub.Post(20*time.Microsecond, burst)
		}
	}
	hub.PostAt(ktime.Time(300*time.Microsecond), burst)

	f.RunUntil(ktime.Time(350 * time.Microsecond))
	f.RunUntilIdle()
	logs[0] = hub.log
	return logs, f.Epochs(), f.MsgsDelivered(), f.MsgsDropped()
}

// TestFleetCommitOrderPinned pins the order in which every destination of a
// hub fleet sees its commitments — values and closures from several leaves
// at one instant, the hub's interleaved bursts, a floor Kill inside one —
// with the floor each was committed at, across commits, in both drives: the
// FNV-1a hash of the logs and the fleet's counters, captured at a48727c.
func TestFleetCommitOrderPinned(t *testing.T) {
	const pinned = "0xcc451d34bf97efae epochs 61 delivered 558 dropped 22"
	var ref string
	for _, parallel := range []bool{false, true} {
		logs, epochs, delivered, dropped := commitStar(parallel)
		h := fnv.New64a()
		for i, log := range logs {
			fmt.Fprintf(h, "node %d: %d\n", i, len(log))
			for _, e := range log {
				fmt.Fprintln(h, e)
			}
		}
		got := fmt.Sprintf("%#x epochs %d delivered %d dropped %d", h.Sum64(), epochs, delivered, dropped)
		if parallel && got != ref {
			t.Fatalf("parallel drive %s, serial %s", got, ref)
		}
		ref = got
	}
	if ref != pinned {
		t.Fatalf("got %s, pinned %s", ref, pinned)
	}
}
