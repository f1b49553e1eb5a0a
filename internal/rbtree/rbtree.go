// Package rbtree provides a generic red-black tree with an ordering function
// supplied by the caller, O(1) cached minimum, and node-handle deletion.
//
// It exists because both CFS and the Enoki WFQ scheduler key their run queues
// by vruntime, where many entities can share a key: deletion must therefore
// operate on the exact node handle given to InsertNode, not on a key search.
// The structure mirrors what kernel/sched/fair.c gets from the kernel's
// rb_tree with a cached leftmost pointer.
//
// The implementation is CLRS-style with a per-tree sentinel leaf.
package rbtree

type color bool

const (
	red   color = false
	black color = true
)

// Node is a handle to an inserted element. Callers keep it to delete the
// element in O(log n) without a search.
type Node[K, V any] struct {
	key                 K
	val                 V
	left, right, parent *Node[K, V]
	color               color
	tree                *Tree[K, V] // owner; nil after removal
}

// Key returns the node's key.
func (n *Node[K, V]) Key() K { return n.key }

// Value returns the node's value.
func (n *Node[K, V]) Value() V { return n.val }

// SetValue replaces the node's value without reordering.
func (n *Node[K, V]) SetValue(v V) { n.val = v }

// Linked reports whether the node is currently in a tree (the zero Node is
// not), so an element that embeds its node needs no separate queued flag.
func (n *Node[K, V]) Linked() bool { return n.tree != nil }

// Tree is a red-black tree ordered by a strict-weak less function. Equal keys
// are allowed; among equal keys, later insertions land to the right, so
// iteration is stable in insertion order within a key (this matches CFS,
// where an entity re-enqueued with an equal vruntime queues behind its
// peers).
type Tree[K, V any] struct {
	less     func(a, b K) bool
	root     *Node[K, V]
	nilNode  *Node[K, V] // &sentinel
	leftmost *Node[K, V]
	size     int
	sentinel Node[K, V]
}

// Init makes t an empty tree ordered by less. The tree points at its own
// sentinel, so it must not be copied once initialised: embed it in its
// owner, the way a run queue embeds its rb_root.
func (t *Tree[K, V]) Init(less func(a, b K) bool) {
	*t = Tree[K, V]{less: less}
	t.sentinel.color = black
	t.nilNode = &t.sentinel
	t.root = t.nilNode
	t.leftmost = t.nilNode
}

// Len returns the number of elements.
func (t *Tree[K, V]) Len() int { return t.size }

// Min returns the node with the smallest key, or nil if the tree is empty.
// It is O(1): the leftmost pointer is maintained across inserts and deletes.
func (t *Tree[K, V]) Min() *Node[K, V] {
	if t.leftmost == t.nilNode {
		return nil
	}
	return t.leftmost
}

// InsertNode adds (key, val) on a caller-owned node — typically embedded in
// the element, the way sched_entity embeds its rb_node — so insertion
// allocates nothing. The node must not be in a tree (that panics).
func (t *Tree[K, V]) InsertNode(n *Node[K, V], key K, val V) {
	if n.tree != nil {
		panic("rbtree: InsertNode of a node already in a tree")
	}
	n.key, n.val = key, val
	n.left, n.right, n.parent = t.nilNode, t.nilNode, t.nilNode
	n.color = red
	n.tree = t
	y := t.nilNode
	x := t.root
	isLeftmost := true
	for x != t.nilNode {
		y = x
		if t.less(n.key, x.key) {
			x = x.left
		} else {
			x = x.right
			isLeftmost = false
		}
	}
	n.parent = y
	switch {
	case y == t.nilNode:
		t.root = n
	case t.less(n.key, y.key):
		y.left = n
	default:
		y.right = n
	}
	if isLeftmost {
		t.leftmost = n
	}
	t.size++
	t.insertFixup(n)
}

// Delete removes the node from the tree. Deleting a node twice, or a node
// from another tree, panics: it would silently corrupt a run queue.
func (t *Tree[K, V]) Delete(n *Node[K, V]) {
	if n == nil || n.tree != t {
		panic("rbtree: Delete of node not in this tree")
	}
	if n == t.leftmost {
		t.leftmost = t.successor(n)
	}
	t.deleteNode(n)
	n.tree = nil
	n.left, n.right, n.parent = nil, nil, nil
	t.size--
}

// PopMin removes and returns the minimum node, or nil if empty.
func (t *Tree[K, V]) PopMin() *Node[K, V] {
	n := t.Min()
	if n == nil {
		return nil
	}
	t.Delete(n)
	return n
}

// Next returns the in-order successor of n, or nil at the maximum.
func (t *Tree[K, V]) Next(n *Node[K, V]) *Node[K, V] {
	s := t.successor(n)
	if s == t.nilNode {
		return nil
	}
	return s
}

// Ascend calls fn for each node in ascending key order until fn returns
// false. The tree must not be modified during iteration.
func (t *Tree[K, V]) Ascend(fn func(n *Node[K, V]) bool) {
	for n := t.Min(); n != nil; n = t.Next(n) {
		if !fn(n) {
			return
		}
	}
}

func (t *Tree[K, V]) successor(n *Node[K, V]) *Node[K, V] {
	if n.right != t.nilNode {
		x := n.right
		for x.left != t.nilNode {
			x = x.left
		}
		return x
	}
	y := n.parent
	x := n
	for y != t.nilNode && x == y.right {
		x = y
		y = y.parent
	}
	return y
}

func (t *Tree[K, V]) leftRotate(x *Node[K, V]) {
	y := x.right
	x.right = y.left
	if y.left != t.nilNode {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == t.nilNode:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *Tree[K, V]) rightRotate(x *Node[K, V]) {
	y := x.left
	x.left = y.right
	if y.right != t.nilNode {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == t.nilNode:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *Tree[K, V]) insertFixup(z *Node[K, V]) {
	for z.parent.color == red {
		if z.parent == z.parent.parent.left {
			y := z.parent.parent.right
			if y.color == red {
				z.parent.color = black
				y.color = black
				z.parent.parent.color = red
				z = z.parent.parent
			} else {
				if z == z.parent.right {
					z = z.parent
					t.leftRotate(z)
				}
				z.parent.color = black
				z.parent.parent.color = red
				t.rightRotate(z.parent.parent)
			}
		} else {
			y := z.parent.parent.left
			if y.color == red {
				z.parent.color = black
				y.color = black
				z.parent.parent.color = red
				z = z.parent.parent
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rightRotate(z)
				}
				z.parent.color = black
				z.parent.parent.color = red
				t.leftRotate(z.parent.parent)
			}
		}
	}
	t.root.color = black
}

func (t *Tree[K, V]) transplant(u, v *Node[K, V]) {
	switch {
	case u.parent == t.nilNode:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	v.parent = u.parent
}

func (t *Tree[K, V]) deleteNode(z *Node[K, V]) {
	y := z
	yOrigColor := y.color
	var x *Node[K, V]
	switch {
	case z.left == t.nilNode:
		x = z.right
		t.transplant(z, z.right)
	case z.right == t.nilNode:
		x = z.left
		t.transplant(z, z.left)
	default:
		y = z.right
		for y.left != t.nilNode {
			y = y.left
		}
		yOrigColor = y.color
		x = y.right
		if y.parent == z {
			x.parent = y
		} else {
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.color = z.color
	}
	if yOrigColor == black {
		t.deleteFixup(x)
	}
	// Scrub the sentinel's transient parent link so later operations see a
	// clean leaf.
	t.nilNode.parent = nil
	t.nilNode.left = nil
	t.nilNode.right = nil
	t.nilNode.color = black
}

func (t *Tree[K, V]) deleteFixup(x *Node[K, V]) {
	for x != t.root && x.color == black {
		if x == x.parent.left {
			w := x.parent.right
			if w.color == red {
				w.color = black
				x.parent.color = red
				t.leftRotate(x.parent)
				w = x.parent.right
			}
			if w.left.color == black && w.right.color == black {
				w.color = red
				x = x.parent
			} else {
				if w.right.color == black {
					w.left.color = black
					w.color = red
					t.rightRotate(w)
					w = x.parent.right
				}
				w.color = x.parent.color
				x.parent.color = black
				w.right.color = black
				t.leftRotate(x.parent)
				x = t.root
			}
		} else {
			w := x.parent.left
			if w.color == red {
				w.color = black
				x.parent.color = red
				t.rightRotate(x.parent)
				w = x.parent.left
			}
			if w.right.color == black && w.left.color == black {
				w.color = red
				x = x.parent
			} else {
				if w.left.color == black {
					w.right.color = black
					w.color = red
					t.leftRotate(w)
					w = x.parent.left
				}
				w.color = x.parent.color
				x.parent.color = black
				w.left.color = black
				t.rightRotate(x.parent)
				x = t.root
			}
		}
	}
	x.color = black
}
