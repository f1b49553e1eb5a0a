package sim

import (
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"enoki/internal/ktime"
)

// wheelHorizon is the near-wheel window in virtual time; events beyond it
// take the overflow path.
const wheelHorizon = numSlots * slotGrain * time.Nanosecond

// onWheels runs body against the wheel's two storage states: a cold engine,
// whose slots have no buffers yet and get them carved from fresh chunks as
// the test pushes, and a warm one that has already turned the wheel past
// its horizon with enough same-slot traffic that every slot has outgrown
// its carved buffer — and, drained, has handed the grown one on to the
// wheel, where the test's pushes pick them up again. Firing order is the
// (at, seq) order either way; the rows exist so a storage change cannot
// make that depend on which buffer an entry happens to sit in.
func onWheels(t *testing.T, body func(t *testing.T, e *Engine)) {
	t.Run("cold", func(t *testing.T) { body(t, New()) })
	t.Run("warm", func(t *testing.T) {
		e := New()
		nop := func() {}
		for i := 0; i < 3*numSlots; i++ {
			at := ktime.Time(i * slotGrain / 2)
			for j := 0; j <= i%(2*slotCarve); j++ {
				e.PostAt(at, nop)
			}
		}
		e.Run()
		parked := 0
		for _, pile := range e.wq.parked {
			parked += len(pile)
		}
		for i := range e.wq.slots {
			if e.wq.slots[i].ents == nil && parked == 0 {
				t.Fatalf("warm-up left slot %d without a buffer and parked none", i)
			}
		}
		body(t, e)
	})
}

// TestFarFutureOverflowPromotion schedules events far beyond the near-wheel
// horizon and checks they are promoted and fire in exact (time, seq) order,
// interleaved with near events.
func TestFarFutureOverflowPromotion(t *testing.T) {
	onWheels(t, testFarFutureOverflowPromotion)
}

func testFarFutureOverflowPromotion(t *testing.T, e *Engine) {
	var order []int
	// Far events, out of order, several wheel rotations out.
	e.After(5*wheelHorizon, func() { order = append(order, 5) })
	e.After(3*wheelHorizon, func() { order = append(order, 3) })
	e.After(9*wheelHorizon, func() { order = append(order, 9) })
	// Near events.
	e.After(10*time.Microsecond, func() { order = append(order, 0) })
	e.After(wheelHorizon/2, func() { order = append(order, 1) })
	if e.wq.over.empty() {
		t.Fatal("far-future events did not take the overflow path")
	}
	e.Run()
	want := []int{0, 1, 3, 5, 9}
	if len(order) != len(want) {
		t.Fatalf("fired %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if !e.wq.over.empty() {
		t.Fatal("overflow not drained")
	}
}

// TestOverflowPromotionPreservesTies: far-future events at the same instant
// must fire in insertion order after promotion, exactly like near ties.
func TestOverflowPromotionPreservesTies(t *testing.T) {
	onWheels(t, testOverflowPromotionPreservesTies)
}

func testOverflowPromotionPreservesTies(t *testing.T, e *Engine) {
	var order []int
	at := e.Now().Add(4 * wheelHorizon)
	for i := 0; i < 20; i++ {
		i := i
		e.At(at, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("promotion broke tie order at %d: %v", i, order)
		}
	}
}

// TestRearmFromFiringClosureAcrossHorizon is the recurring-timer edge case:
// an event re-arming itself from inside its own firing closure, alternating
// between near and far-future (overflow) target times.
func TestRearmFromFiringClosureAcrossHorizon(t *testing.T) {
	e := New()
	var times []ktime.Time
	var ev *Event
	ev = e.NewEvent(func() {
		times = append(times, e.Now())
		switch len(times) {
		case 1:
			e.RescheduleAfter(ev, 2*wheelHorizon) // into overflow
		case 2:
			e.RescheduleAfter(ev, 5*time.Microsecond) // back into the wheel
		}
	})
	e.RescheduleAfter(ev, 10*time.Nanosecond)
	e.Run()
	if len(times) != 3 {
		t.Fatalf("recurring timer fired %d times, want 3", len(times))
	}
	if times[1].Sub(times[0]) != 2*wheelHorizon {
		t.Fatalf("far re-arm fired after %v, want %v", times[1].Sub(times[0]), 2*wheelHorizon)
	}
	if times[2].Sub(times[1]) != 5*time.Microsecond {
		t.Fatalf("near re-arm fired after %v, want 5µs", times[2].Sub(times[1]))
	}
}

// TestCancelThenRearmRecycledEvent exercises the free-list safety contract
// under the wheel: a fire-and-forget event fires and is recycled, its Event
// object is reused by a later Post, and a retained handle from an unrelated
// cancelled+re-armed event must neither fire twice nor disturb the recycled
// object.
func TestCancelThenRearmRecycledEvent(t *testing.T) {
	e := New()
	fired := 0
	e.Post(10, func() { fired++ })
	e.Run()
	if e.Recycled() != 1 {
		t.Fatalf("Recycled = %d", e.Recycled())
	}

	// Handle event: cancel while queued, then re-arm (revive), then cancel
	// and re-arm once more after it fired.
	hits := 0
	ev := e.NewEvent(func() { hits++ })
	e.RescheduleAfter(ev, 20)
	ev.Cancel()
	e.RescheduleAfter(ev, 30)
	// The Post here must draw the recycled Event from the free list and
	// coexist with ev's stale tombstone entry.
	e.Post(5, func() { fired++ })
	e.Run()
	if hits != 1 {
		t.Fatalf("revived event fired %d times, want 1", hits)
	}
	if fired != 2 {
		t.Fatalf("fire-and-forget events fired %d times, want 2", fired)
	}
	ev.Cancel() // cancel after fire: no-op
	e.RescheduleAfter(ev, 10)
	e.Run()
	if hits != 2 {
		t.Fatalf("re-armed-after-fire event fired %d times total, want 2", hits)
	}
}

// TestRearmWhileQueuedLeavesOneFiring: re-arming a queued event many times
// must fire it exactly once, at the last target, despite the stale entries
// the wheel accumulates.
func TestRearmWhileQueuedLeavesOneFiring(t *testing.T) {
	e := New()
	count := 0
	ev := e.NewEvent(func() { count++ })
	for i := 1; i <= 50; i++ {
		e.Reschedule(ev, ktime.Time(1000+i))
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if count != 1 {
		t.Fatalf("event fired %d times, want 1", count)
	}
	if e.Now() != ktime.Time(1050) {
		t.Fatalf("fired at %v, want 1050", e.Now())
	}
}

// TestQueueLiveExcludesDeadEntries: QueueLen counts tombstones and stale
// re-arm entries, QueueLive does not.
func TestQueueLiveExcludesDeadEntries(t *testing.T) {
	e := New()
	ev1 := e.After(100, func() {})
	e.After(200, func() {})
	ev3 := e.NewEvent(func() {})
	e.Reschedule(ev3, ktime.Time(300))
	e.Reschedule(ev3, ktime.Time(400)) // stale entry at 300
	ev1.Cancel()                       // tombstone at 100

	if got := e.QueueLen(); got != 4 {
		t.Fatalf("QueueLen = %d, want 4 (2 live + tombstone + stale)", got)
	}
	if got := e.QueueLive(); got != 2 {
		t.Fatalf("QueueLive = %d, want 2", got)
	}
	if e.QueueLive() != e.Pending() {
		t.Fatalf("QueueLive (%d) != Pending (%d)", e.QueueLive(), e.Pending())
	}
	e.Run()
	if e.QueueLive() != 0 || e.QueueLen() != 0 {
		t.Fatalf("after drain: live=%d raw=%d", e.QueueLive(), e.QueueLen())
	}
}

// TestCompactionMidDrainWithRetainedHandle triggers compaction from inside a
// firing closure — mid-drain, while the wheel's current slot is partially
// consumed — with a retained handle that is re-armed afterwards. The
// compaction pass must not disturb the drain order or the handle's revival.
func TestCompactionMidDrainWithRetainedHandle(t *testing.T) {
	e := New()
	var evs []*Event
	// Everything lands in one ~2µs wheel slot so the compaction runs while
	// that slot is mid-drain.
	base := ktime.Time(10000)
	hits := 0
	retained := e.NewEvent(func() { hits++ })
	e.Reschedule(retained, base.Add(500))

	for i := 0; i < 300; i++ {
		at := base.Add(ktime.Duration(i))
		evs = append(evs, e.At(at, func() {}))
	}
	var fired []ktime.Time
	// The trigger event fires first (earliest in the slot), cancels most of
	// the slot's remaining events plus the retained handle — pushing dead
	// entries past the compaction threshold mid-drain — then re-arms the
	// retained handle beyond the slot.
	e.At(base, func() {
		for _, ev := range evs {
			ev.Cancel()
		}
		retained.Cancel()
		if e.QueueLen() > 150 {
			t.Fatalf("compaction did not run mid-drain: raw=%d live=%d",
				e.QueueLen(), e.QueueLive())
		}
		e.Reschedule(retained, base.Add(5000))
	})
	e.At(base.Add(700), func() { fired = append(fired, e.Now()) })
	e.Run()

	if hits != 1 {
		t.Fatalf("retained handle fired %d times, want 1", hits)
	}
	if e.Now() != base.Add(5000) {
		t.Fatalf("final event at %v, want %v", e.Now(), base.Add(5000))
	}
	if len(fired) != 1 || fired[0] != base.Add(700) {
		t.Fatalf("surviving event fired at %v", fired)
	}
}

// TestCompactionReleasesNothingLive: the compaction sweep must never free or
// reorder live entries even when interleaved with the overflow level.
func TestCompactionReleasesNothingLive(t *testing.T) {
	onWheels(t, testCompactionReleasesNothingLive)
}

func testCompactionReleasesNothingLive(t *testing.T, e *Engine) {
	var fired []int
	var evs []*Event
	for i := 0; i < 900; i++ {
		i := i
		var at ktime.Time
		if i%3 != 0 {
			at = e.Now().Add(ktime.Duration(1000 + i)) // near
		} else {
			at = e.Now().Add(3 * wheelHorizon).Add(ktime.Duration(i)) // far
		}
		evs = append(evs, e.At(at, func() { fired = append(fired, i) }))
	}
	// Cancel every near event: 600 tombstones against 300 live far events
	// forces a compaction pass that straddles wheel and overflow.
	for i := 0; i < 900; i++ {
		if i%3 != 0 {
			evs[i].Cancel()
		}
	}
	if e.QueueLen() > 450 {
		t.Fatalf("compaction did not run: raw=%d live=%d", e.QueueLen(), e.QueueLive())
	}
	// Only far events survive and must fire in insertion (= index) order.
	e.Run()
	if len(fired) != 300 {
		t.Fatalf("fired %d events, want 300", len(fired))
	}
	for j := 1; j < len(fired); j++ {
		if fired[j] < fired[j-1] {
			t.Fatalf("overflow order broken at %d: %v...", j, fired[:j+1])
		}
	}
}

// TestSlotRefilledWhileDraining is the storage edge the carved buffers add:
// a slot outgrows its carved first buffer (append moves it to a buffer of
// its own and the carved one is abandoned in the chunk), starts draining,
// and is refilled from inside its own firing closures — same-instant posts
// and later-in-slot arms that land in the tail behind the drain position
// and grow the buffer again. The neighbouring slots' carved buffers sit
// right after the abandoned one in the chunk and must come through
// untouched. Everything fires exactly once, in (at, seq) order.
func TestSlotRefilledWhileDraining(t *testing.T) {
	onWheels(t, func(t *testing.T, e *Engine) {
		// slot is the start of a fresh slot a little ahead of now; the
		// neighbours are the slots either side of it.
		slot := ktime.Time((slotOf(e.Now()) + 8) << slotShift)
		type firing struct {
			at ktime.Time
			id int
		}
		var got, want []firing
		id := 0
		var arm func(at ktime.Time, refill int)
		arm = func(at ktime.Time, refill int) {
			me := id
			id++
			e.PostAt(at, func() {
				got = append(got, firing{e.Now(), me})
				for i := 0; i < refill; i++ {
					arm(e.Now(), 0)                          // same instant: behind everything already queued here
					arm(e.Now().Add(ktime.Duration(i+1)), 0) // later in the same slot
				}
			})
		}
		for _, nb := range []ktime.Time{slot - slotGrain, slot + slotGrain} {
			arm(nb, 0)
			arm(nb.Add(1), 0)
		}
		// 3×slotCarve entries: past the carved buffer before draining starts.
		for i := 0; i < 3*slotCarve; i++ {
			arm(slot.Add(ktime.Duration(10*i)), 2)
		}
		e.Run()
		if len(got) != id {
			t.Fatalf("fired %d of %d events", len(got), id)
		}
		// Ids are handed out in arming order, which is seq order: the
		// expected sequence is the stable sort of ids by time.
		want = append(want, got...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].id < want[j].id
		})
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("firing %d was event %d @%v, want event %d @%v", i, got[i].id, got[i].at, want[i].id, want[i].at)
			}
		}
		if e.QueueLen() != 0 {
			t.Fatalf("%d entries left behind", e.QueueLen())
		}
	})
}

// TestSlotGrowthCapacities: a slot outgrowing buffer after buffer moves
// through the capacities slices.Grow would give it — each request rounded up
// to fill its size class — while makeRoom makes them without slices.Grow.
func TestSlotGrowthCapacities(t *testing.T) {
	e := New()
	sl := &e.wq.slots[slotOf(1)%numSlots]
	caps := []int{}
	for i := 0; i < 20000; i++ {
		e.PostAt(1, func() {})
		if len(caps) == 0 || cap(sl.ents) != caps[len(caps)-1] {
			caps = append(caps, cap(sl.ents))
		}
	}
	if caps[0] != slotCarve || len(caps) < 8 {
		t.Fatalf("slot capacities %v, want %d first and at least 8 growths", caps, slotCarve)
	}
	for k, n := range caps[:len(caps)-1] {
		if want := cap(slices.Grow([]entry(nil), n+max(n, 8))); caps[k+1] != want {
			t.Fatalf("slot grew from %d to %d entries, slices.Grow gives %d (all: %v)", n, caps[k+1], want, caps)
		}
	}
}

// TestEngineColdWheelAllocs is the cold-engine allocation ratchet, counted
// the way the benchmark ledger counts (runtime.MemStats.Mallocs over the
// run region, set-up excluded): 64 persistent timers re-armed 2,000 times
// between them across one wheel horizon touch nearly every slot of a fresh
// engine. Carved from per-engine chunks that is 8 allocations; when every
// touched slot grew a slice of its own it was ~1,000, and that — times the
// hundreds of engines a fleet builds per run — was the largest allocation
// site of every benchmark workload.
func TestEngineColdWheelAllocs(t *testing.T) {
	const timers, rearms = 64, 2000
	e := New()
	period := wheelHorizon * timers / rearms
	left := rearms
	evs := make([]*Event, timers)
	for i := range evs {
		ev := &evs[i]
		*ev = e.NewEvent(func() {
			if left > 0 {
				left--
				e.RescheduleAfter(*ev, period)
			}
		})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, ev := range evs {
		e.RescheduleAfter(ev, period*time.Duration(i+1)/timers)
	}
	e.Run()
	runtime.ReadMemStats(&after)
	if left != 0 || e.Now() < ktime.Time(0).Add(wheelHorizon*9/10) {
		t.Fatalf("run region too small: %d re-arms left, clock %v", left, e.Now())
	}
	n := after.Mallocs - before.Mallocs
	t.Logf("%d allocations over %d re-arms", n, rearms)
	if n > 40 {
		t.Fatalf("cold engine allocated %d times over %d re-arms, want <= 40", n, rearms)
	}
}

// TestSlotDrainRefillLinear is the burst-slot ratchet: 1,000 events filed at
// one instant, each of which — like a wake kicking its CPU — posts one
// zero-delay event into the slot being drained. The wheel's own work, counted
// as entries moved from one place in a slot to another, must stay a small
// constant per event. When every peek that found a new tail first copied the
// whole unconsumed remainder down over the consumed prefix it was ~500.
func TestSlotDrainRefillLinear(t *testing.T) {
	const burst = 1000
	e := New()
	at := ktime.Time(8 * slotGrain)
	fired := 0
	kick := func() { fired++ }
	for i := 0; i < burst; i++ {
		e.PostAt(at, func() {
			fired++
			e.Post(0, kick)
		})
	}
	e.Run()
	if fired != 2*burst {
		t.Fatalf("fired %d events, want %d", fired, 2*burst)
	}
	per := float64(e.wq.moved) / float64(fired)
	t.Logf("%d entry moves over %d events: %.2f per event", e.wq.moved, fired, per)
	if per > 4 {
		t.Fatalf("draining a refilled slot moved %.1f entries per event, want <= 4", per)
	}
}
