package core

import (
	"reflect"
	"testing"
)

func contents(d *Deque[int]) []int {
	out := []int{}
	for i := 0; i < d.Len(); i++ {
		out = append(out, d.At(i))
	}
	return out
}

func wantDeque(t *testing.T, d *Deque[int], want ...int) {
	t.Helper()
	if got := contents(d); !reflect.DeepEqual(got, append([]int{}, want...)) {
		t.Fatalf("deque = %v, want %v", got, want)
	}
}

func TestDequeWrapAround(t *testing.T) {
	var d Deque[int]
	if _, ok := d.PopFront(); ok || d.Len() != 0 {
		t.Fatal("zero deque is not empty")
	}
	// Slide a window of three through a ring of four: head and tail both
	// wrap many times, the ring never grows.
	for i := 0; i < 3; i++ {
		d.PushBack(i)
	}
	for i := 3; i < 100; i++ {
		if v, ok := d.PopFront(); !ok || v != i-3 {
			t.Fatalf("pop = %d,%v, want %d", v, ok, i-3)
		}
		d.PushBack(i)
		wantDeque(t, &d, i-2, i-1, i)
	}
	if len(d.buf) != 4 {
		t.Errorf("ring grew to %d slots under a steady depth of 3", len(d.buf))
	}
}

func TestDequeGrowWhileWrapped(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 4; i++ {
		d.PushBack(i)
	}
	d.PopFront()
	d.PopFront()
	d.PushBack(4)
	d.PushBack(5) // full, and wrapped: 2 3 | 4 5 stored as 4 5 2 3
	if d.head == 0 {
		t.Fatal("setup: ring is not wrapped")
	}
	d.PushBack(6) // grows
	d.PushFront(1)
	wantDeque(t, &d, 1, 2, 3, 4, 5, 6)
	for want := 1; want <= 6; want++ {
		if v, _ := d.PopFront(); v != want {
			t.Fatalf("pop = %d, want %d", v, want)
		}
	}
}

func TestDequeRemoveAndInsertMiddle(t *testing.T) {
	// Every position of every rotation of a six-element ring, so both
	// shift directions cross the wrap point.
	for rot := 0; rot < 8; rot++ {
		for pos := 0; pos < 6; pos++ {
			var d Deque[int]
			for i := 0; i < rot; i++ {
				d.PushBack(-1)
			}
			for i := 0; i < rot; i++ {
				d.PopFront()
			}
			want := []int{}
			for i := 0; i < 6; i++ {
				d.PushBack(i)
				want = append(want, i)
			}
			if v := d.RemoveAt(pos); v != pos {
				t.Fatalf("rot %d: RemoveAt(%d) = %d", rot, pos, v)
			}
			want = append(want[:pos], want[pos+1:]...)
			wantDeque(t, &d, want...)
			d.Insert(pos, 9)
			want = append(want[:pos], append([]int{9}, want[pos:]...)...)
			wantDeque(t, &d, want...)
			if !d.Remove(9) || d.Remove(9) {
				t.Fatalf("rot %d pos %d: Remove(9) did not remove exactly once", rot, pos)
			}
		}
	}
}

func TestDequePushFrontAfterPop(t *testing.T) {
	var d Deque[int]
	d.PushBack(1)
	d.PushBack(2)
	v, _ := d.PopFront()
	d.PushFront(v) // pnt_err: the rejected head goes back where it was
	wantDeque(t, &d, 1, 2)
	d.PushFront(0)
	wantDeque(t, &d, 0, 1, 2)
}

func TestDequeReleasesRemovedElements(t *testing.T) {
	var d Deque[*int]
	for i := 0; i < 4; i++ {
		d.PushBack(new(int))
	}
	d.PopFront()
	d.RemoveAt(1)
	live := 0
	for _, p := range d.buf {
		if p != nil {
			live++
		}
	}
	if live != d.Len() {
		t.Errorf("ring still holds %d pointers for %d elements", live, d.Len())
	}
}

func TestDequeSteadyStateZeroAlloc(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 5; i++ {
		d.PushBack(i)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		v, _ := d.PopFront()
		d.PushBack(v)
		d.PushFront(d.RemoveAt(2))
	}); avg != 0 {
		t.Errorf("steady-state queue churn: %v allocs/op, want 0", avg)
	}
}
