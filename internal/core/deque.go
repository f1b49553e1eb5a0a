package core

// Deque is a growable ring buffer, libEnoki's VecDeque: the run-queue
// container scheduler modules use instead of reslicing (`q = q[1:]` walks
// off its backing array and reallocates on the next append) or splicing
// through a fresh copy. Push and pop at either end are O(1) and allocate
// only when the ring doubles; positional insert and remove shift the
// shorter side. The zero value is an empty deque, so a []Deque[T] per-CPU
// table needs no constructor, and a deque rides in an upgrade state capsule
// like any other value.
type Deque[T comparable] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// Len returns the number of queued elements.
func (d *Deque[T]) Len() int { return d.n }

// slot maps logical position i (0 = front) to its index in buf.
func (d *Deque[T]) slot(i int) int { return (d.head + i) & (len(d.buf) - 1) }

// At returns the element at position i, front first; it panics when i is
// out of range, like a slice index.
func (d *Deque[T]) At(i int) T {
	if uint(i) >= uint(d.n) {
		panic("core: Deque index out of range")
	}
	return d.buf[d.slot(i)]
}

// grow doubles the ring when it is full, unwrapping the contents to the
// start of the new buffer.
func (d *Deque[T]) grow() {
	if d.n < len(d.buf) {
		return
	}
	nb := make([]T, max(4, 2*len(d.buf)))
	k := copy(nb, d.buf[d.head:])
	copy(nb[k:], d.buf[:d.head])
	d.buf, d.head = nb, 0
}

// PushBack appends v behind the last element.
func (d *Deque[T]) PushBack(v T) {
	d.grow()
	d.buf[d.slot(d.n)] = v
	d.n++
}

// PushFront inserts v ahead of the first element.
func (d *Deque[T]) PushFront(v T) {
	d.grow()
	d.head = d.slot(len(d.buf) - 1)
	d.buf[d.head] = v
	d.n++
}

// PopFront removes and returns the first element; ok is false when empty.
func (d *Deque[T]) PopFront() (v T, ok bool) {
	if d.n == 0 {
		return v, false
	}
	var zero T
	v, d.buf[d.head] = d.buf[d.head], zero
	d.head = d.slot(1)
	d.n--
	return v, true
}

// Insert places v at position i (0 ≤ i ≤ Len), moving whichever side of i
// is shorter.
func (d *Deque[T]) Insert(i int, v T) {
	if uint(i) > uint(d.n) {
		panic("core: Deque insert out of range")
	}
	if i < d.n-i {
		d.PushFront(v)
		for j := 0; j < i; j++ {
			d.buf[d.slot(j)] = d.buf[d.slot(j+1)]
		}
	} else {
		d.PushBack(v)
		for j := d.n - 1; j > i; j-- {
			d.buf[d.slot(j)] = d.buf[d.slot(j-1)]
		}
	}
	d.buf[d.slot(i)] = v
}

// RemoveAt removes and returns the element at position i, closing the gap
// from whichever side is shorter. The vacated slot is zeroed so the ring
// never pins a removed element.
func (d *Deque[T]) RemoveAt(i int) T {
	v := d.At(i)
	var zero T
	if i < d.n-1-i {
		for j := i; j > 0; j-- {
			d.buf[d.slot(j)] = d.buf[d.slot(j-1)]
		}
		d.buf[d.head] = zero
		d.head = d.slot(1)
	} else {
		for j := i; j < d.n-1; j++ {
			d.buf[d.slot(j)] = d.buf[d.slot(j+1)]
		}
		d.buf[d.slot(d.n-1)] = zero
	}
	d.n--
	return v
}

// Remove removes the first element equal to v and reports whether there was
// one.
func (d *Deque[T]) Remove(v T) bool {
	for i := 0; i < d.n; i++ {
		if d.buf[d.slot(i)] == v {
			d.RemoveAt(i)
			return true
		}
	}
	return false
}

// CloneQueues copies per-CPU queues for a ReregisterPrepare capsule, each
// element mapped through f (a record to its copy).
func CloneQueues[T comparable](qs []Deque[T], f func(T) T) []Deque[T] {
	c := make([]Deque[T], len(qs))
	for i := range qs {
		for j := 0; j < qs[i].n; j++ {
			c[i].PushBack(f(qs[i].At(j)))
		}
	}
	return c
}
