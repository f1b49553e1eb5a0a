package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"enoki/internal/ktime"
)

// shardedPingPong builds a deterministic multi-shard workload: every shard
// runs a local event chain and periodically sends a message to the next
// shard, which logs it and replies. Returns the per-shard logs.
func shardedPingPong(shards, rounds int) [][]string {
	la := 2 * time.Microsecond
	s := NewSharded(shards, la)
	logs := make([][]string, shards)

	for i := 0; i < shards; i++ {
		i := i
		eng := s.Shard(i)
		n := 0
		var local func()
		local = func() {
			n++
			logs[i] = append(logs[i], fmt.Sprintf("local %d @%d", n, eng.Now()))
			if n < rounds {
				eng.Post(ktime.Duration(300+50*i)*time.Nanosecond, local)
			}
			if n%3 == 0 {
				to := (i + 1) % shards
				at := eng.Now().Add(la + ktime.Duration(i)*100)
				s.Send(i, to, at, func() {
					logs[to] = append(logs[to], fmt.Sprintf("msg from %d @%d", i, s.Shard(to).Now()))
				})
			}
		}
		eng.Post(time.Microsecond, local)
	}
	s.RunUntilIdle()
	return logs
}

// TestShardedPingPongPinned pins shardedPingPong(4, 60) across commits: the
// FNV-1a hash of its per-shard logs, captured at 85aa9b0, where the serial
// and the parallel drive still agreed entry for entry.
func TestShardedPingPongPinned(t *testing.T) {
	const pinned = 0xe87e528740aa596f
	h := fnv.New64a()
	for i, log := range shardedPingPong(4, 60) {
		fmt.Fprintf(h, "shard %d: %d\n", i, len(log))
		for _, e := range log {
			fmt.Fprintln(h, e)
		}
	}
	if got := h.Sum64(); got != pinned {
		t.Fatalf("logs hash to %#x, pinned %#x", got, uint64(pinned))
	}
}

// TestShardedRepeatedRunsIdentical: the same workload twice gives the same
// logs — determinism across runs, not only against the pin.
func TestShardedRepeatedRunsIdentical(t *testing.T) {
	a := shardedPingPong(3, 40)
	b := shardedPingPong(3, 40)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("shard %d run divergence at %d", i, j)
			}
		}
	}
}

// TestShardedMergeOrder pins the deterministic merge tiebreak: messages due
// at the same instant deliver ordered by destination shard, then source
// shard, then send sequence.
func TestShardedMergeOrder(t *testing.T) {
	s := NewSharded(3, time.Microsecond)
	var order []string
	at := ktime.Time(0).Add(5 * time.Microsecond)
	log := func(tag string) func() { return func() { order = append(order, tag) } }
	// Sent from shard context before any run (all clocks at 0).
	s.Send(2, 1, at, log("2→1 a"))
	s.Send(2, 1, at, log("2→1 b")) // same tuple: send-seq breaks the tie
	s.Send(1, 0, at, log("1→0"))
	s.Send(0, 1, at, log("0→1"))
	s.Send(0, 2, at, log("0→2"))
	s.RunUntilIdle()
	want := []string{"1→0", "0→1", "2→1 a", "2→1 b", "0→2"}
	if len(order) != len(want) {
		t.Fatalf("delivered %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("merge order = %v, want %v", order, want)
		}
	}
	if s.MsgsDelivered() != 5 || s.MsgsSent() != 5 {
		t.Fatalf("sent=%d delivered=%d", s.MsgsSent(), s.MsgsDelivered())
	}
}

// TestShardedSendUnderLookaheadPanics: a message due before now+lookahead
// would race the epoch protocol and must be rejected loudly.
func TestShardedSendUnderLookaheadPanics(t *testing.T) {
	s := NewSharded(2, time.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("Send under the lookahead floor did not panic")
		}
	}()
	s.Send(0, 1, ktime.Time(0).Add(500*time.Nanosecond), func() {})
}

// TestShardedBatchHooks: all same-instant messages to one shard drain inside
// a single begin/end bracket.
func TestShardedBatchHooks(t *testing.T) {
	s := NewSharded(2, time.Microsecond)
	var trace []string
	s.SetBatchHooks(
		func(sh int) { trace = append(trace, fmt.Sprintf("begin %d", sh)) },
		func(sh int) { trace = append(trace, fmt.Sprintf("end %d", sh)) },
	)
	at := ktime.Time(0).Add(3 * time.Microsecond)
	for i := 0; i < 4; i++ {
		s.Send(0, 1, at, func() { trace = append(trace, "msg") })
	}
	s.RunUntilIdle()
	want := []string{"begin 1", "msg", "msg", "msg", "msg", "end 1"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

// TestShardedRunUntilComposes: clocks land exactly on the boundary and
// back-to-back RunUntil calls behave like one long run.
func TestShardedRunUntilComposes(t *testing.T) {
	build := func() (*Sharded, *int) {
		s := NewSharded(2, time.Microsecond)
		count := new(int)
		for i := 0; i < 2; i++ {
			eng := s.Shard(i)
			var chain func()
			chain = func() { *count++; eng.Post(10*time.Microsecond, chain) }
			eng.Post(10*time.Microsecond, chain)
		}
		return s, count
	}
	a, ca := build()
	a.RunUntil(ktime.Time(0).Add(time.Millisecond))
	b, cb := build()
	for i := 0; i < 10; i++ {
		b.RunUntil(ktime.Time(0).Add(time.Duration(i+1) * 100 * time.Microsecond))
	}
	if *ca != *cb {
		t.Fatalf("split runs fired %d events, one run fired %d", *cb, *ca)
	}
	if a.Now() != b.Now() || a.Shard(0).Now() != b.Shard(0).Now() {
		t.Fatalf("clocks: %v/%v vs %v/%v", a.Now(), a.Shard(0).Now(), b.Now(), b.Shard(0).Now())
	}
}

// TestShardedEpochJumpsDeadTime: with sparse events the executor must not
// grind through empty lookahead windows — epochs jump to the next event.
func TestShardedEpochJumpsDeadTime(t *testing.T) {
	s := NewSharded(4, time.Microsecond)
	fired := 0
	// Two events a full second apart: epoch count must stay tiny.
	s.Shard(0).Post(time.Second, func() { fired++ })
	s.Shard(3).Post(2*time.Second, func() { fired++ })
	s.RunUntilIdle()
	if fired != 2 {
		t.Fatalf("fired %d", fired)
	}
	if s.Epochs() > 8 {
		t.Fatalf("%d epochs for two sparse events — dead time not skipped", s.Epochs())
	}
}

// TestShardedZeroAllocSteadyState: a shard-local steady state (no cross
// traffic) must not allocate per epoch.
func TestShardedZeroAllocSteadyState(t *testing.T) {
	s := NewSharded(2, time.Microsecond)
	for i := 0; i < 2; i++ {
		eng := s.Shard(i)
		var chain func()
		chain = func() { eng.Post(500*time.Nanosecond, chain) }
		eng.Post(500*time.Nanosecond, chain)
	}
	// Warm past a full wheel rotation so every slot's backing slice exists.
	s.RunUntil(ktime.Time(0).Add(5 * time.Millisecond))
	end := s.Now()
	allocs := testing.AllocsPerRun(200, func() {
		end = end.Add(10 * time.Microsecond)
		s.RunUntil(end)
	})
	if allocs != 0 {
		t.Fatalf("sharded steady state allocates %.1f/run, want 0", allocs)
	}
}

// TestShardedLoneShardWindows: a one-shard executor driven to a finite bound
// runs windows longer than its lookahead. That may change nothing but the
// epoch count — in particular a shard that sends to itself must still get
// the message at its instant, after the events due by then and before the
// later ones. The reference is the same scenario under RunUntilIdle, which
// keeps lookahead-sized windows.
func TestShardedLoneShardWindows(t *testing.T) {
	la := 2 * time.Microsecond
	build := func() (*Sharded, *[]string) {
		s := NewSharded(1, la)
		eng := s.Shard(0)
		log := new([]string)
		note := func(what string) { *log = append(*log, fmt.Sprintf("%s @%d", what, eng.Now())) }
		s.SetBatchHooks(func(int) { note("begin") }, func(int) { note("end") })
		s.SetMsgHandler(func(_ int, m *Msg) { note(fmt.Sprintf("value %d", m.A)) })
		n := 0
		var tick func()
		tick = func() {
			n++
			note(fmt.Sprintf("tick %d", n))
			if n%3 == 0 { // a self-send due exactly on a later tick's instant
				k := n
				s.Send(0, 0, eng.Now().Add(ktime.Duration(3*time.Microsecond)), func() { note(fmt.Sprintf("self %d", k)) })
			}
			if n < 30 {
				eng.Post(time.Microsecond, tick)
			}
		}
		eng.Post(time.Microsecond, tick)
		// Injected traffic due mid-run, value and closure at one instant.
		at := ktime.Time(0).Add(ktime.Duration(10 * time.Microsecond))
		s.AcceptMsg(at, &Msg{Kind: 1, A: 7})
		s.Inject(0, at, func() { note("injected") })
		return s, log
	}
	ref, refLog := build()
	ref.RunUntilIdle()
	lone, loneLog := build()
	lone.RunUntil(ktime.Time(0).Add(ktime.Duration(time.Millisecond)))
	if fmt.Sprint(*refLog) != fmt.Sprint(*loneLog) {
		t.Fatalf("long windows changed the run:\nlookahead windows %v\nlong windows      %v", *refLog, *loneLog)
	}
	if len(*refLog) < 30+10*3+4 {
		t.Fatalf("scenario too small: %v", *refLog)
	}
	if lone.Epochs() >= ref.Epochs() {
		t.Fatalf("long windows took %d epochs, lookahead windows %d", lone.Epochs(), ref.Epochs())
	}
	if lone.MsgsDelivered() != ref.MsgsDelivered() {
		t.Fatalf("delivered %d vs %d", lone.MsgsDelivered(), ref.MsgsDelivered())
	}
}
