package sim

import (
	"slices"
	"testing"
	"unsafe"

	"enoki/internal/ktime"
)

// TestEventSize pins Event at 56 bytes: the arm-instant bookkeeping rides in
// the key and the padding after the flags, and a kernel Task embeds one.
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 56 {
		t.Fatalf("Event is %d bytes, want 56", size)
	}
}

// TestArmedAt checks the arm instants the engine reports: a posted event's,
// and a queued event's after Reschedule moves it, each with the arm instant
// of the event that armed it; Now between events; and a lead past the
// horizon saturating.
func TestArmedAt(t *testing.T) {
	e := New()
	type seen struct{ at, armed, parent ktime.Time }
	var got []seen
	record := func() {
		a, p := e.ArmedAt()
		got = append(got, seen{e.Now(), a, p})
	}
	e.PostAt(10, func() {
		e.Post(5, record) // armed at 10 by an event armed at 0
	})
	ev := e.NewEvent(record)
	e.Reschedule(ev, 40)
	e.PostAt(20, func() { e.Reschedule(ev, 50) }) // moved while queued: armed at 20
	far := ktime.Time(armHorizon + 1000)
	e.PostAt(far, record)
	e.Run()
	want := []seen{{15, 10, 0}, {50, 20, 0}, {far, far - armHorizon, far - armHorizon}}
	if !slices.Equal(got, want) {
		t.Fatalf("arm instants %v, want %v", got, want)
	}
	if a, p := e.ArmedAt(); a != far || p != far {
		t.Fatalf("between events ArmedAt = %v, %v, want Now twice", a, p)
	}
}

// standInMark is a stand-in handler logging its name; stand-ins armed at one
// instant fire in rank order.
type standInMark struct {
	name  string
	rank  int
	order *[]string
}

func (m *standInMark) Fire() { *m.order = append(*m.order, m.name) }

func (m *standInMark) FiresBefore(other Handler) bool { return m.rank < other.(*standInMark).rank }

// TestArmOrder checks the order the arm-instant rule rests on: at one
// instant, an event armed at an earlier instant fires first — a saturated
// lead included — and of two armed at one instant, the one armed first. A
// stand-in takes the place its arm instant gives it: ahead of the events
// really armed then unless their arming event was armed before its own, and
// among stand-ins in the order their handlers give. RescheduleArmed with an
// arming number puts an event exactly where that arming would have been.
func TestArmOrder(t *testing.T) {
	e := New()
	var order []string
	mark := func(name string) func() {
		return func() { order = append(order, name) }
	}
	const due = ktime.Time(2 * armHorizon)
	e.PostAt(due, mark("armed at 0, saturated"))
	e.PostAt(due-armHorizon-10, func() { e.PostAt(due, mark("armed late, saturated")) })
	e.PostAt(due-500, func() { e.PostAt(due, mark("armed 500 before")) })
	// Two events armed at due-300: one by an event armed at 0, one by an
	// event armed at due-400.
	e.PostAt(due-300, func() { e.PostAt(due, mark("armed 300 before by an early event")) })
	e.PostAt(due-400, func() {
		e.PostAt(due-300, func() { e.PostAt(due, mark("armed 300 before by a late event")) })
	})
	standIns := [2]*Event{}
	for i, name := range []string{"stand-in B", "stand-in A"} {
		standIns[i] = &Event{}
		e.Bind(standIns[i], &standInMark{name: name, rank: 2 - i, order: &order})
	}
	e.PostAt(due-100, func() {
		// Filed now as if armed at due-300 by an event armed at due-350:
		// after both events armed then, whose arming events were armed
		// earlier, and A before B by their handlers.
		e.RescheduleArmed(standIns[0], due, due-300, due-350, AsStandIn)
		e.RescheduleArmed(standIns[1], due, due-300, due-350, AsStandIn)
	})
	e.PostAt(due-100, func() { e.PostAt(due, mark("armed 100 before")) })
	e.Run()
	want := []string{
		"armed at 0, saturated",
		"armed late, saturated",
		"armed 500 before",
		"armed 300 before by an early event",
		"armed 300 before by a late event",
		"stand-in A",
		"stand-in B",
		"armed 100 before",
	}
	if !slices.Equal(order, want) {
		t.Fatalf("fired\n %q\nwant\n %q", order, want)
	}

	// A stand-in whose arming event was armed before the real events' goes
	// first; so does one armed at the same instant as theirs.
	e = New()
	order = order[:0]
	s := &Event{}
	e.Bind(s, &standInMark{name: "stand-in", order: &order})
	e.PostAt(100, func() { e.PostAt(200, mark("real")) })
	e.PostAt(150, func() { e.RescheduleArmed(s, 200, 100, 0, AsStandIn) })
	e.Run()
	if want := []string{"stand-in", "real"}; !slices.Equal(order, want) {
		t.Fatalf("fired %q, want %q", order, want)
	}

	// An event re-filed, later, as the second of three
	// armings made at 100 fires between the other two, and Firing reports
	// its number.
	e = New()
	order = order[:0]
	var n uint64
	var got []uint64
	moved := e.NewEvent(func() {
		order = append(order, "moved")
		_, m, standIn, ok := e.Firing()
		if !ok || standIn {
			t.Fatalf("Firing = %d, %v, %v for a real arming", m, standIn, ok)
		}
		got = append(got, m)
	})
	e.PostAt(100, func() {
		e.PostAt(300, mark("first"))
		n = e.Armings()
		e.Reschedule(moved, 500)
		e.PostAt(300, mark("third"))
	})
	e.PostAt(200, func() { e.RescheduleArmed(moved, 300, 100, 0, n) })
	e.Run()
	if want := []string{"first", "moved", "third"}; !slices.Equal(order, want) || !slices.Equal(got, []uint64{n}) {
		t.Fatalf("fired %q with number %v, want %q with %d", order, got, want, n)
	}
}
