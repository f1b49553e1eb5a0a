// The hierarchical timer queue behind Engine: a near wheel of fixed-grain
// slots covering the next ~2 ms of virtual time, plus an overflow min-heap
// for everything beyond the wheel horizon. Arm and cancel are O(1) for the
// near window — the hot path, since the kernel's kicks, slice timers, and
// segment completions all land within a couple of milliseconds of now — and
// far-future events (long sleeps, drain timers) pay one heap push plus one
// batch promotion when the window advances over them.
//
// Ordering is identical to the old global binary heap: events fire in
// (time, key) order (sim.go's armKey). The wheel stores value entries {at,
// seq, ev}; an Event can be re-armed while queued by pushing a fresh entry
// and letting the stale one (seq mismatch) be skipped on pop, which is what
// keeps arm/cancel O(1) without index maintenance. Stale and tombstoned
// entries are dropped lazily on pop and in bulk by maybeCompact.
//
// Slot storage is sized for cold engines too — a fleet builds hundreds per
// run, and a slot growing a slice of its own on first touch made wheel
// pushes the largest allocation site of every workload. A slot's first
// buffer is carved from a per-engine chunk. A slot that outgrows it moves to
// a bigger one and hands that on when it drains: grown buffers are parked on
// the wheel by size class for the next slot that needs one, so a burst that
// lands on a different slot every tick grows a handful of buffers per
// engine, not one per slot. An occupancy bitmap finds the earliest non-empty
// slot a word at a time. None of this can affect firing order, which is the
// (at, seq) total order whatever holds the entries.
package sim

import (
	"cmp"
	"math/bits"
	"reflect"
	"slices"

	"enoki/internal/ktime"
)

const (
	// slotShift/slotGrain: each near-wheel slot covers 2^11 ns ≈ 2 µs.
	slotShift = 11
	slotGrain = 1 << slotShift
	// numSlots slots give the near wheel a ~2.1 ms horizon — wide enough
	// that tick timers (1 ms) and typical sleeps stay out of the overflow
	// heap.
	numSlots = 1024
	// slotCarve is the capacity of a slot's first buffer, chunkSlots how
	// many of them one chunk allocation yields. On a fleet machine 97% of
	// touched slots never hold more than two entries at once; 128 per chunk
	// puts a fully touched wheel at 8 allocations of 6 KB.
	slotCarve  = 2
	chunkSlots = 128
)

// entry is one queued occurrence of an event. The (at, seq) pair is the
// global firing order and doubles as the staleness check: if it no longer
// matches the event's current arming, the entry is dead.
type entry struct {
	at  ktime.Time
	seq uint64
	ev  *Event
}

// less orders entries by (time, sequence).
func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func cmpEntry(a, b entry) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	return cmp.Compare(a.seq, b.seq)
}

// slot is one near-wheel bucket. Entries [:idx) are consumed (and zeroed),
// [idx:sorted) are in firing order; [sorted:] is the unsorted tail appended
// since the last sort (same-slot pushes while the slot is draining — zero-
// delay kicks). The tail is folded in lazily, when the slot is at the front.
type slot struct {
	ents   []entry
	idx    int
	sorted int
}

func (s *slot) empty() bool { return s.idx >= len(s.ents) }

// normalize folds the unsorted tail into the sorted region by insertion; the
// consumed prefix stays where it is (makeRoom takes it back). Ticks and wake
// bursts push same-time entries in seq order, so the tail is usually already
// sorted and the pass is near-linear; a large tail is sorted first
// (pattern-defeating quicksort: a burst filed in firing order, like a
// control plane's same-instant acks, costs one pass).
func (s *slot) normalize() {
	if s.sorted >= len(s.ents) {
		return
	}
	if tail := s.ents[s.sorted:]; len(tail) > 48 {
		slices.SortFunc(tail, cmpEntry)
	}
	insertEntries(s.ents[s.idx:], s.sorted-s.idx)
	s.sorted = len(s.ents)
}

// peek returns the earliest entry of a normalized slot without consuming it.
func (s *slot) peek() entry { return s.ents[s.idx] }

// pop consumes and returns the earliest entry of a normalized slot.
func (s *slot) pop() entry {
	e := s.ents[s.idx]
	s.ents[s.idx] = entry{}
	s.idx++
	if s.idx >= len(s.ents) {
		s.ents = s.ents[:0]
		s.idx, s.sorted = 0, 0
	}
	return e
}

// insertEntries sorts e in place given that e[:mid] already is: each later
// element is inserted among everything before it. The tail is short or
// presorted in steady state, so this beats an allocating merge buffer.
func insertEntries(e []entry, mid int) {
	for i := max(mid, 1); i < len(e); i++ {
		v := e[i]
		j := i - 1
		for j >= 0 && v.less(e[j]) {
			e[j+1] = e[j]
			j--
		}
		e[j+1] = v
	}
}

// overflow is a manual min-heap of entries (container/heap would box every
// entry through interface{} and allocate on each push).
type overflow struct {
	ents []entry
}

func (o *overflow) empty() bool { return len(o.ents) == 0 }

func (o *overflow) push(e entry) {
	o.ents = append(o.ents, e)
	i := len(o.ents) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !o.ents[i].less(o.ents[p]) {
			break
		}
		o.ents[i], o.ents[p] = o.ents[p], o.ents[i]
		i = p
	}
}

func (o *overflow) pop() entry {
	e := o.ents[0]
	n := len(o.ents) - 1
	o.ents[0] = o.ents[n]
	o.ents[n] = entry{}
	o.ents = o.ents[:n]
	if n > 0 {
		o.siftDown(0)
	}
	return e
}

func (o *overflow) siftDown(i int) {
	n := len(o.ents)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && o.ents[c+1].less(o.ents[c]) {
			c++
		}
		if !o.ents[c].less(o.ents[i]) {
			return
		}
		o.ents[i], o.ents[c] = o.ents[c], o.ents[i]
		i = c
	}
}

// wheelQueue is the full hierarchical structure: near wheel + overflow
// level. base is the absolute slot number (at >> slotShift) of the window
// start; the window covers slot numbers [base, base+numSlots).
type wheelQueue struct {
	base     int64 // absolute slot number of window start
	nearCnt  int   // entries in the near wheel
	nentries int   // total entries, live + stale + tombstoned
	// occ has bit i set while slots[i] is non-empty.
	occ [numSlots / 64]uint64
	// chunk is the unused remainder of the latest first-buffer allocation.
	chunk []entry
	// parked[c] holds the grown buffers of capacity [2^c, 2^(c+1)) that slots
	// are done with.
	parked [32][][]entry
	// moved counts entries makeRoom copied, within or between buffers (tests).
	moved uint64
	over  overflow
	slots [numSlots]slot
}

func slotOf(t ktime.Time) int64 { return int64(t) >> slotShift }

// windowEnd returns the first absolute time beyond the near window.
func (w *wheelQueue) windowEnd() ktime.Time {
	return ktime.Time((w.base + numSlots) << slotShift)
}

// park puts a grown buffer its slot is done with — drained, or outgrown —
// on the pile of its size class. Callers keep first buffers out: the pipes'
// two-entry slots have nothing else, and parking those too (or so much as a
// call per drained slot to find out) measured 3% off their throughput.
func (w *wheelQueue) park(buf []entry) {
	c := bits.Len(uint(cap(buf))) - 1
	w.parked[c] = append(w.parked[c], buf[:0])
}

// take returns a parked buffer with room for n entries, from the smallest
// size class that guarantees it, or nil.
func (w *wheelQueue) take(n int) []entry {
	for c := bits.Len(uint(n - 1)); c < len(w.parked); c++ {
		if p := w.parked[c]; len(p) > 0 {
			w.parked[c] = p[:len(p)-1]
			return p[len(p)-1]
		}
	}
	return nil
}

// carve returns a first buffer off the chunk, its capacity capped so an
// append past it reallocates instead of running into a neighbour.
func (w *wheelQueue) carve() []entry {
	if len(w.chunk) < slotCarve {
		w.chunk = make([]entry, slotCarve*chunkSlots)
	}
	buf := w.chunk[:0:slotCarve]
	w.chunk = w.chunk[slotCarve:]
	return buf
}

// makeRoom gives a slot whose buffer is full or missing room for one more
// entry. A draining slot takes back its consumed prefix once that is a
// quarter of the buffer: at most three moves per place won, so a burst slot
// whose every event kicks a CPU through the same slot drains in linear time
// (reclaiming at every peek copied the whole remainder down once per kick).
// Otherwise the slot moves to a buffer twice the size, parked or new.
func (w *wheelQueue) makeRoom(sl *slot) {
	old := sl.ents
	n := len(old)
	switch {
	case old == nil:
		if sl.ents = w.take(slotCarve + 1); sl.ents == nil {
			sl.ents = w.carve()
		}
	case 4*sl.idx >= n:
		live := copy(old, old[sl.idx:])
		clear(old[live:])
		sl.ents = old[:live]
		sl.sorted -= sl.idx
		sl.idx = 0
		w.moved += uint64(live)
	default:
		if sl.ents = w.take(2 * n); sl.ents == nil {
			// Grow fills the size class as append does, without the
			// made slice slices.Grow appends (allocated under -race).
			reflect.ValueOf(&sl.ents).Elem().Grow(n + max(n, 8))
		}
		sl.ents = append(sl.ents, old...)
		clear(old)
		if w.moved += uint64(n); n > slotCarve {
			w.park(old)
		}
	}
}

// push files an entry into the near wheel or the overflow level.
func (w *wheelQueue) push(e entry) {
	w.nentries++
	s := slotOf(e.at)
	if s < w.base {
		// Window already advanced past this time: only possible when the
		// clock sits mid-window (pushes are never in the past), so the
		// current base slot is the right home.
		s = w.base
	}
	if s < w.base+numSlots {
		i := s % numSlots
		sl := &w.slots[i]
		if len(sl.ents) == cap(sl.ents) {
			w.makeRoom(sl)
		}
		sl.ents = append(sl.ents, e)
		w.occ[i>>6] |= 1 << uint(i&63)
		w.nearCnt++
		return
	}
	w.over.push(e)
}

// advanceTo moves the window start forward to absolute slot s (never
// backward) and promotes overflow entries that now fall inside the window.
// Callers only invoke it when the slots being skipped are empty.
func (w *wheelQueue) advanceTo(s int64) {
	if s <= w.base {
		return
	}
	w.base = s
	end := w.windowEnd()
	for !w.over.empty() && w.over.ents[0].at < end {
		e := w.over.pop()
		w.nentries-- // push re-counts it
		w.push(e)
	}
}

// firstOccupied returns how many slots past the window start the earliest
// non-empty slot sits, scanning the bitmap a word at a time (the start word
// twice: from start up, then after a full lap its low bits, which are the
// window's last slots). The near wheel must hold at least one entry.
func (w *wheelQueue) firstOccupied() int64 {
	start := int(w.base % numSlots)
	for off := 0; off < numSlots; {
		i := (start + off) % numSlots
		if word := w.occ[i>>6] >> uint(i&63); word != 0 {
			return int64(off + bits.TrailingZeros64(word))
		}
		off += 64 - i&63
	}
	panic("sim: near wheel count and occupancy bitmap disagree")
}

// front moves the window start to the earliest non-empty slot — jumping to
// the overflow root when the near wheel is empty, promoting what the move
// uncovers — and returns it normalized, or nil when the queue holds no
// entries at all. The queue's minimum is the slot's peek; popFront consumes
// it.
func (w *wheelQueue) front() *slot {
	if w.nentries == 0 {
		return nil
	}
	if w.nearCnt == 0 {
		// Promotion moves the root (and any peers) into the wheel.
		w.advanceTo(slotOf(w.over.ents[0].at))
		if w.nearCnt == 0 {
			panic("sim: overflow promotion moved no entries")
		}
	}
	// Promoted entries land at or after the new base, so the slot found
	// here stays the earliest after the advance.
	w.advanceTo(w.base + w.firstOccupied())
	sl := &w.slots[w.base%numSlots]
	sl.normalize()
	return sl
}

// popFront consumes the entry front's slot peeked.
func (w *wheelQueue) popFront() entry {
	i := w.base % numSlots
	sl := &w.slots[i]
	e := sl.pop()
	if sl.empty() {
		w.occ[i>>6] &^= 1 << uint(i&63)
		if cap(sl.ents) > slotCarve {
			w.park(sl.ents)
			sl.ents = nil
		}
	}
	w.nearCnt--
	w.nentries--
	return e
}

// compact rebuilds every slot and the overflow without stale or tombstoned
// entries. Consumed prefixes are dropped and slots are left unsorted (the
// next pop re-normalizes), which keeps the pass a single O(n) sweep.
// Tombstoned fire-and-forget events cannot exist (no handle, no Cancel), so
// dropped entries never need free-list release.
func (w *wheelQueue) compact(liveEntry func(entry) bool) {
	total := 0
	for i := range w.slots {
		sl := &w.slots[i]
		kept := sl.ents[:0]
		for _, e := range sl.ents[sl.idx:] {
			if liveEntry(e) {
				kept = append(kept, e)
			}
		}
		for j := len(kept); j < len(sl.ents); j++ {
			sl.ents[j] = entry{}
		}
		sl.ents = kept
		sl.idx, sl.sorted = 0, 0
		if len(kept) == 0 {
			w.occ[i>>6] &^= 1 << uint(i&63)
		}
		total += len(kept)
	}
	w.nearCnt = total
	keptOver := w.over.ents[:0]
	for _, e := range w.over.ents {
		if liveEntry(e) {
			keptOver = append(keptOver, e)
		}
	}
	for j := len(keptOver); j < len(w.over.ents); j++ {
		w.over.ents[j] = entry{}
	}
	w.over.ents = keptOver
	// Re-heapify: order within the kept slice was heap order, not sorted.
	for i := len(w.over.ents)/2 - 1; i >= 0; i-- {
		w.over.siftDown(i)
	}
	w.nentries = total + len(w.over.ents)
}
