package rbtree

// CheckInvariants validates the red-black properties and the cached leftmost
// pointer; it returns the black-height or panics on violation.
func (t *Tree[K, V]) CheckInvariants() int {
	if t.root.color != black {
		panic("rbtree: root is red")
	}
	var walkMin *Node[K, V]
	if t.size > 0 {
		walkMin = t.root
		for walkMin.left != t.nilNode {
			walkMin = walkMin.left
		}
	}
	if walkMin != nil && walkMin != t.leftmost {
		panic("rbtree: cached leftmost is stale")
	}
	if t.size == 0 && t.leftmost != t.nilNode {
		panic("rbtree: leftmost set on empty tree")
	}
	var check func(n *Node[K, V]) int
	check = func(n *Node[K, V]) int {
		if n == t.nilNode {
			return 1
		}
		if n.color == red && (n.left.color == red || n.right.color == red) {
			panic("rbtree: red node with red child")
		}
		if n.left != t.nilNode && t.less(n.key, n.left.key) {
			panic("rbtree: BST order violated (left)")
		}
		if n.right != t.nilNode && t.less(n.right.key, n.key) {
			panic("rbtree: BST order violated (right)")
		}
		lh := check(n.left)
		rh := check(n.right)
		if lh != rh {
			panic("rbtree: black-height mismatch")
		}
		if n.color == black {
			return lh + 1
		}
		return lh
	}
	return check(t.root)
}
