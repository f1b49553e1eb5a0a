package rbtree

import (
	"sort"
	"testing"
	"testing/quick"

	"enoki/internal/ktime"
)

func intTree() *Tree[int, string] {
	tr := new(Tree[int, string])
	tr.Init(func(a, b int) bool { return a < b })
	return tr
}

// insert adds (key, val) on a node of its own.
func insert[K, V any](tr *Tree[K, V], key K, val V) *Node[K, V] {
	n := new(Node[K, V])
	tr.InsertNode(n, key, val)
	return n
}

func TestEmptyTree(t *testing.T) {
	tr := intTree()
	if tr.Len() != 0 {
		t.Fatal("new tree not empty")
	}
	if tr.Min() != nil {
		t.Fatal("Min on empty tree not nil")
	}
	if tr.PopMin() != nil {
		t.Fatal("PopMin on empty tree not nil")
	}
	tr.CheckInvariants()
}

func TestInsertAndMin(t *testing.T) {
	tr := intTree()
	for _, k := range []int{5, 3, 8, 1, 9, 7} {
		insert(tr, k, "")
		tr.CheckInvariants()
	}
	if tr.Len() != 6 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Min().Key() != 1 {
		t.Fatalf("Min = %d", tr.Min().Key())
	}
}

func TestAscendSorted(t *testing.T) {
	tr := intTree()
	keys := []int{42, 17, 99, 3, 56, 23, 88, 11, 64, 7}
	for _, k := range keys {
		insert(tr, k, "")
	}
	var got []int
	tr.Ascend(func(n *Node[int, string]) bool {
		got = append(got, n.Key())
		return true
	})
	want := append([]int(nil), keys...)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("got %d keys", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order mismatch at %d: %v vs %v", i, got, want)
		}
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := intTree()
	for i := 0; i < 10; i++ {
		insert(tr, i, "")
	}
	n := 0
	tr.Ascend(func(*Node[int, string]) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestDeleteByHandle(t *testing.T) {
	tr := intTree()
	nodes := make(map[int]*Node[int, string])
	for _, k := range []int{5, 3, 8, 1, 9, 7, 2, 6, 4} {
		nodes[k] = insert(tr, k, "")
	}
	for _, k := range []int{5, 1, 9, 3} {
		tr.Delete(nodes[k])
		tr.CheckInvariants()
		delete(nodes, k)
	}
	if tr.Len() != 5 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	if tr.Min().Key() != 2 {
		t.Fatalf("Min = %d", tr.Min().Key())
	}
}

func TestDoubleDeletePanics(t *testing.T) {
	tr := intTree()
	n := insert(tr, 1, "")
	tr.Delete(n)
	defer func() {
		if recover() == nil {
			t.Fatal("double delete did not panic")
		}
	}()
	tr.Delete(n)
}

func TestDeleteForeignNodePanics(t *testing.T) {
	a, b := intTree(), intTree()
	n := insert(a, 1, "")
	defer func() {
		if recover() == nil {
			t.Fatal("cross-tree delete did not panic")
		}
	}()
	b.Delete(n)
}

func TestEqualKeysStableOrder(t *testing.T) {
	// CFS relies on equal-vruntime entities dequeueing in insertion order.
	tr := intTree()
	insert(tr, 5, "first")
	insert(tr, 5, "second")
	insert(tr, 5, "third")
	var got []string
	for {
		n := tr.PopMin()
		if n == nil {
			break
		}
		got = append(got, n.Value())
	}
	if len(got) != 3 || got[0] != "first" || got[1] != "second" || got[2] != "third" {
		t.Fatalf("equal-key order: %v", got)
	}
}

func TestPopMinDrainsSorted(t *testing.T) {
	tr := intTree()
	r := ktime.NewRand(1)
	for i := 0; i < 1000; i++ {
		insert(tr, r.Intn(100), "")
	}
	prev := -1
	for {
		n := tr.PopMin()
		if n == nil {
			break
		}
		if n.Key() < prev {
			t.Fatalf("PopMin out of order: %d after %d", n.Key(), prev)
		}
		prev = n.Key()
	}
	if tr.Len() != 0 {
		t.Fatal("tree not empty after drain")
	}
	tr.CheckInvariants()
}

func TestSetValue(t *testing.T) {
	tr := intTree()
	n := insert(tr, 1, "a")
	n.SetValue("b")
	if tr.Min().Value() != "b" {
		t.Fatal("SetValue not visible")
	}
}

func TestNextIteration(t *testing.T) {
	tr := intTree()
	for i := 0; i < 20; i += 2 {
		insert(tr, i, "")
	}
	n := tr.Min()
	for want := 0; want < 20; want += 2 {
		if n == nil || n.Key() != want {
			t.Fatalf("Next iteration broke at %d", want)
		}
		n = tr.Next(n)
	}
	if n != nil {
		t.Fatal("Next past maximum not nil")
	}
}

// Property test: any interleaving of inserts and handle-deletes keeps the
// red-black invariants, the size, and the min in agreement with a reference
// model.
func TestQuickRandomOps(t *testing.T) {
	f := func(seed uint64) bool {
		r := ktime.NewRand(seed)
		tr := intTree()
		var live []*Node[int, string]
		model := map[*Node[int, string]]int{}
		for op := 0; op < 400; op++ {
			if len(live) == 0 || r.Bernoulli(0.6) {
				k := r.Intn(50)
				n := insert(tr, k, "")
				live = append(live, n)
				model[n] = k
			} else {
				i := r.Intn(len(live))
				n := live[i]
				tr.Delete(n)
				delete(model, n)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			tr.CheckInvariants()
			if tr.Len() != len(model) {
				return false
			}
			if len(model) > 0 {
				min := 1 << 30
				for _, k := range model {
					if k < min {
						min = k
					}
				}
				if tr.Min().Key() != min {
					return false
				}
			} else if tr.Min() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertPopMin(b *testing.B) {
	tr := new(Tree[int64, int])
	tr.Init(func(a, c int64) bool { return a < c })
	r := ktime.NewRand(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		insert(tr, int64(r.Uint64()%1e9), i)
		if tr.Len() > 64 {
			tr.PopMin()
		}
	}
}
