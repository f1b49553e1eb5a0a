package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"enoki/internal/ktime"
)

// fleetPingPong builds a deterministic fleet of plain engines: every node
// runs a local event chain and periodically sends a message to the next
// node, whose commitment posts the log entry into the destination engine at
// the delivery instant. Returns the per-node logs.
func fleetPingPong(parallel bool, nodes, rounds int) [][]string {
	la := 20 * time.Microsecond
	f := NewFleet(la)
	f.SetParallel(parallel)
	engs := make([]*Engine, nodes)
	logs := make([][]string, nodes)
	for i := 0; i < nodes; i++ {
		engs[i] = New()
		f.AddNode(engs[i])
	}
	for i := 0; i < nodes; i++ {
		i := i
		eng := engs[i]
		n := 0
		var local func()
		local = func() {
			n++
			logs[i] = append(logs[i], fmt.Sprintf("local %d @%d", n, eng.Now()))
			if n < rounds {
				eng.Post(ktime.Duration(2+time.Duration(i))*time.Microsecond, local)
			}
			if n%3 == 0 {
				to := (i + 1) % nodes
				at := eng.Now().Add(ktime.Duration(la) + ktime.Duration(i)*100)
				f.Send(i, to, at, func() {
					// Commitment: hand the payload to the destination
					// engine for execution at the delivery instant.
					engs[to].PostAt(at, func() {
						logs[to] = append(logs[to], fmt.Sprintf("msg from %d @%d", i, engs[to].Now()))
					})
				})
			}
		}
		eng.Post(time.Microsecond, local)
	}
	f.RunUntilIdle()
	return logs
}

// TestFleetSerialParallelIdentity is the fleet-level determinism oracle:
// fork-join and serial drives must produce byte-identical per-node logs.
// Under -race this also proves the epoch barrier is sound.
func TestFleetSerialParallelIdentity(t *testing.T) {
	serial := fleetPingPong(false, 5, 40)
	par := fleetPingPong(true, 5, 40)
	for i := range serial {
		if len(serial[i]) != len(par[i]) {
			t.Fatalf("node %d: %d serial entries vs %d parallel", i, len(serial[i]), len(par[i]))
		}
		for j := range serial[i] {
			if serial[i][j] != par[i][j] {
				t.Fatalf("node %d diverges at %d: %q vs %q", i, j, serial[i][j], par[i][j])
			}
		}
	}
}

// TestFleetParallelEpochAllocs is the fork-join's allocation ratchet: a
// warmed fleet of engines, each re-arming one persistent timer, run in
// parallel across many epochs allocates nothing. Counters, barrier and
// worker body live in the Fleet; when each built them per call it was three
// allocations an epoch.
func TestFleetParallelEpochAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const nodes, la = 6, 10 * time.Microsecond
	f := NewFleet(la)
	f.SetParallel(true)
	for i := 0; i < nodes; i++ {
		e := New()
		f.AddNode(e)
		var ev *Event
		ev = e.NewEvent(func() { e.RescheduleAfter(ev, ktime.Duration(3+i)*time.Microsecond) })
		e.RescheduleAfter(ev, time.Microsecond)
	}
	step := func() { f.RunUntil(f.Now().Add(100 * la)) }
	for i := 0; i < 10; i++ {
		step() // warm the wheels and the runtime's free goroutines
	}
	epochs := f.Epochs()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("%.2f allocations per run of 100 lookaheads, want 0", allocs)
	}
	if n := f.Epochs() - epochs; n < 50*50 {
		t.Fatalf("%d epochs in the measured runs, want at least %d", n, 50*50)
	}
}

// TestFleetShardedNodes runs whole Sharded executors as fleet members: the
// two-level protocol (fleet epochs over machine epochs over shard engines)
// must stay deterministic in both fleet drive modes.
func TestFleetShardedNodes(t *testing.T) {
	run := func(parallel bool) [][]string {
		const machines, shardsPer = 3, 2
		netLA := 50 * time.Microsecond
		ipiLA := 2 * time.Microsecond
		f := NewFleet(netLA)
		f.SetParallel(parallel)
		sk := make([]*Sharded, machines)
		logs := make([][]string, machines)
		for m := 0; m < machines; m++ {
			sk[m] = NewSharded(shardsPer, ipiLA)
			f.AddNode(sk[m])
		}
		for m := 0; m < machines; m++ {
			m := m
			eng := sk[m].Shard(0)
			n := 0
			var local func()
			local = func() {
				n++
				logs[m] = append(logs[m], fmt.Sprintf("m%d local %d @%d", m, n, eng.Now()))
				if n < 25 {
					eng.Post(3*time.Microsecond, local)
				}
				if n%4 == 0 {
					to := (m + 1) % machines
					at := eng.Now().Add(ktime.Duration(netLA))
					f.Send(m, to, at, func() {
						// Commitment: inject into the destination machine,
						// alternating target shards.
						shard := n % shardsPer
						sk[to].Inject(shard, at, func() {
							logs[to] = append(logs[to], fmt.Sprintf("m%d got msg from %d on shard %d @%d",
								to, m, shard, sk[to].Shard(shard).Now()))
						})
					})
				}
			}
			eng.Post(time.Microsecond, local)
		}
		f.RunUntilIdle()
		return logs
	}
	ref, got := run(false), run(true)
	for i := range ref {
		if len(ref[i]) != len(got[i]) {
			t.Fatalf("node %d: %d serial vs %d parallel entries", i, len(ref[i]), len(got[i]))
		}
		for j := range ref[i] {
			if ref[i][j] != got[i][j] {
				t.Fatalf("node %d diverges at %d: %q vs %q", i, j, ref[i][j], got[i][j])
			}
		}
	}
}

// TestFleetKill checks fail-stop semantics: a killed node freezes at the
// kill instant, later messages to it are dropped and counted, and the rest
// of the fleet keeps running — identically in serial and parallel drives.
func TestFleetKill(t *testing.T) {
	run := func(parallel bool) (survivor []string, victim []string, dropped uint64, victimNow ktime.Time) {
		f := NewFleet(10 * time.Microsecond)
		f.SetParallel(parallel)
		engs := [2]*Engine{New(), New()}
		var sLog, vLog []string
		f.AddNode(engs[0])
		f.AddNode(sinkNode{Engine: engs[1], got: func(Msg) { vLog = append(vLog, "ghost") }})
		for i, log := range []*[]string{&sLog, &vLog} {
			i, log := i, log
			eng := engs[i]
			n := 0
			var tick func()
			tick = func() {
				n++
				*log = append(*log, fmt.Sprintf("tick %d @%d", n, eng.Now()))
				if n < 40 {
					eng.Post(5*time.Microsecond, tick)
				}
			}
			eng.Post(time.Microsecond, tick)
		}
		// Kill node 1 at t=50µs via a fleet message, then keep sending to the
		// corpse: those sends must be dropped.
		killAt := ktime.Time(0).Add(ktime.Duration(50 * time.Microsecond))
		f.Send(0, 1, killAt, func() { f.Kill(1) })
		// A value message due at the kill instant itself, sent after the
		// kill: it commits in the same batch, right behind it, and must be
		// dropped and counted like any closure to the corpse.
		f.SendMsg(0, 1, killAt, Msg{Kind: 1})
		for i := 1; i <= 5; i++ {
			at := killAt.Add(ktime.Duration(i) * ktime.Duration(10*time.Microsecond))
			f.Send(0, 1, at, func() { engs[1].PostAt(at, func() { vLog = append(vLog, "ghost") }) })
		}
		f.RunUntil(ktime.Time(0).Add(ktime.Duration(300 * time.Microsecond)))
		return sLog, vLog, f.MsgsDropped(), engs[1].Now()
	}
	s1, v1, d1, n1 := run(false)
	s2, v2, d2, n2 := run(true)
	if d1 != 6 || d2 != 6 {
		t.Fatalf("dropped = %d serial / %d parallel, want 6", d1, d2)
	}
	if len(s1) != 40 {
		t.Fatalf("survivor ran %d ticks, want all 40", len(s1))
	}
	for _, v := range [][]string{v1, v2} {
		for _, e := range v {
			if e == "ghost" {
				t.Fatal("message delivered to a dead node")
			}
		}
	}
	if fmt.Sprint(s1, v1, n1) != fmt.Sprint(s2, v2, n2) {
		t.Fatalf("serial and parallel kill runs diverge:\n%v %v %v\n%v %v %v", s1, v1, n1, s2, v2, n2)
	}
	// The victim's clock froze at (or before) the epoch boundary of the kill;
	// it must not have reached the fleet bound.
	if n1 >= ktime.Time(0).Add(ktime.Duration(300*time.Microsecond)) {
		t.Fatalf("victim clock advanced to %v after kill", n1)
	}
}

// TestFleetSendUnderLookaheadPanics pins the lookahead floor.
func TestFleetSendUnderLookaheadPanics(t *testing.T) {
	f := NewFleet(10 * time.Microsecond)
	f.AddNode(New())
	f.AddNode(New())
	defer func() {
		if recover() == nil {
			t.Fatal("send under the lookahead floor did not panic")
		}
	}()
	f.Send(0, 1, ktime.Time(0).Add(ktime.Duration(time.Microsecond)), func() {})
}

// TestFleetRunUntilComposes checks that back-to-back RunUntil calls behave
// like one long run, with live node clocks in lockstep at each bound.
func TestFleetRunUntilComposes(t *testing.T) {
	f := NewFleet(10 * time.Microsecond)
	e0, e1 := New(), New()
	f.AddNode(e0)
	f.AddNode(e1)
	fired := 0
	e1.Post(70*time.Microsecond, func() { fired++ })
	for i := 1; i <= 10; i++ {
		bound := ktime.Time(0).Add(ktime.Duration(i) * ktime.Duration(20*time.Microsecond))
		f.RunUntil(bound)
		if e0.Now() != bound || e1.Now() != bound {
			t.Fatalf("after RunUntil(%v): clocks %v / %v", bound, e0.Now(), e1.Now())
		}
	}
	if fired != 1 {
		t.Fatalf("event fired %d times, want 1", fired)
	}
}

// TestShardedInjectOrdering pins the Inject contract: injected messages
// deliver at their instant before same-instant shard traffic, in injection
// order, through the normal drain machinery.
func TestShardedInjectOrdering(t *testing.T) {
	s := NewSharded(2, 5*time.Microsecond)
	var log []string
	at := ktime.Time(0).Add(ktime.Duration(20 * time.Microsecond))
	// A shard-1 → shard-0 message at the same instant as two injections:
	// the injections (source -1) must deliver first.
	s.Shard(1).Post(10*time.Microsecond, func() {
		s.Send(1, 0, at, func() { log = append(log, "from shard 1") })
	})
	s.Inject(0, at, func() { log = append(log, "inject A") })
	s.Inject(0, at, func() { log = append(log, "inject B") })
	s.RunUntilIdle()
	if want := "[inject A inject B from shard 1]"; fmt.Sprint(log) != want {
		t.Fatalf("delivery order %v, want %s", log, want)
	}
}

// TestShardedNextEventTime checks the fleet-facing probe sees both shard
// events and in-flight messages.
func TestShardedNextEventTime(t *testing.T) {
	s := NewSharded(2, 5*time.Microsecond)
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("empty executor reports pending work")
	}
	s.Shard(1).Post(40*time.Microsecond, func() {})
	if at, ok := s.NextEventTime(); !ok || at != ktime.Time(0).Add(ktime.Duration(40*time.Microsecond)) {
		t.Fatalf("NextEventTime = %v,%v want 40µs", at, ok)
	}
	msgAt := ktime.Time(0).Add(ktime.Duration(10 * time.Microsecond))
	s.Inject(0, msgAt, func() {})
	if at, ok := s.NextEventTime(); !ok || at != msgAt {
		t.Fatalf("NextEventTime = %v,%v want 10µs (pending message)", at, ok)
	}
}

// promiser is a hub engine whose QuietUntil returns whatever it is told.
type promiser struct {
	*Engine
	quiet ktime.Time
}

func (p *promiser) QuietUntil() ktime.Time { return p.quiet }

// quietStar builds a hub and n leaves of the given shards, each leaf ticking
// every 7µs so a quiet run has events to fire.
func quietStar(n, shards int) (*Fleet, *promiser) {
	const la = 10 * time.Microsecond
	f := NewFleet(la)
	hub := &promiser{Engine: New(), quiet: maxTime}
	f.AddNode(hub)
	for i := 0; i < n; i++ {
		leaf := NewSharded(shards, la)
		f.AddNode(leaf)
		e := leaf.Shard(0)
		var tick func()
		tick = func() { e.Post(7*time.Microsecond, tick) }
		e.Post(time.Microsecond, tick)
	}
	f.SetHub(0)
	return f, hub
}

// wantPanic runs fn and fails unless it panics with a message containing
// want.
func wantPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	fn()
}

// TestFleetLyingHubPanics: a hub that promises silence and then sends to a
// leaf inside the horizon its promise opened must panic at that send, as
// must a floor-observing send inside it and any send between two leaves —
// never let the leaves' early run diverge silently.
func TestFleetLyingHubPanics(t *testing.T) {
	const la = 10 * time.Microsecond
	t.Run("handoff to a leaf", func(t *testing.T) {
		f, hub := quietStar(3, 1)
		hub.PostAt(ktime.Time(time.Millisecond), func() {
			f.SendHandoff(0, 2, hub.Now().Add(la), func() {})
		})
		wantPanic(t, "breaks its QuietUntil promise", func() { f.RunUntil(ktime.Time(5 * time.Millisecond)) })
	})
	t.Run("floor message to itself", func(t *testing.T) {
		f, hub := quietStar(3, 1)
		hub.PostAt(ktime.Time(time.Millisecond), func() {
			f.Send(0, 0, hub.Now().Add(la), func() {})
		})
		wantPanic(t, "breaks its QuietUntil promise", func() { f.RunUntil(ktime.Time(5 * time.Millisecond)) })
	})
	t.Run("leaf to leaf", func(t *testing.T) {
		f, _ := quietStar(3, 1)
		leaf := f.Node(1).(*Sharded).Shard(0)
		leaf.PostAt(ktime.Time(20*time.Microsecond), func() {
			f.SendHandoff(1, 3, leaf.Now().Add(la), func() {})
		})
		wantPanic(t, "bypasses hub", func() { f.RunUntil(ktime.Time(time.Millisecond)) })
	})
	t.Run("kept promise", func(t *testing.T) {
		f, hub := quietStar(3, 1)
		hub.quiet = ktime.Time(time.Millisecond)
		hub.PostAt(hub.quiet, func() {
			f.SendHandoff(0, 2, hub.Now().Add(la), func() {})
			hub.quiet = maxTime
		})
		f.RunUntil(ktime.Time(3 * time.Millisecond))
		for i := 1; i < f.NumNodes(); i++ {
			if got := f.Node(i).Now(); got != ktime.Time(3*time.Millisecond) {
				t.Fatalf("leaf %d ends at %v, want 3ms", i, got)
			}
		}
	})
}

// TestFleetQuietNeedsOneShardLeaf: a star whose leaves all have several
// shards never asks its hub for a promise, so it runs the plain epoch loop.
func TestFleetQuietNeedsOneShardLeaf(t *testing.T) {
	for _, shards := range []int{1, 2} {
		if f, _ := quietStar(3, shards); (f.quiet != nil) != (shards == 1) {
			t.Errorf("%d-shard leaves: promise asked for = %v", shards, f.quiet != nil)
		}
	}
}
