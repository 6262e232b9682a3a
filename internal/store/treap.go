// Package store implements MRP-Store (Section 6.1): a partitioned,
// replicated key-value store with sequential consistency built on
// Multi-Ring Paxos state-machine replication.
//
// Keys are strings, values arbitrary byte arrays. The database is divided
// into partitions, each responsible for a subset of the key space (hash-
// or range-partitioned; the schema is published through the coordination
// service as in Section 7.2). Each partition is replicated with
// state-machine replication over its own multicast group; replicas may
// additionally subscribe to a global group so multi-partition operations
// (scans) are ordered with respect to all other operations.
package store

import (
	"strings"
)

// treap is a randomized balanced binary search tree used as the in-memory
// sorted database at every replica (the paper stores entries "in an
// in-memory tree"). Expected O(log n) insert/delete/lookup and in-order
// range iteration for scans.
//
// The tree is persistent (path-copying copy-on-write): nodes are never
// mutated once linked into a root, so Put and Delete rebuild only the
// O(log n) nodes on the touched path and share every other subtree with
// the previous version. snapshot() therefore captures a consistent
// point-in-time view of the whole database in O(1) — the foundation of
// the replica's non-blocking checkpoint pipeline, where serialization
// runs on a background goroutine while new commands keep executing
// against newer roots.
type treap struct {
	root *treapNode
	size int
}

// treapNode is immutable after being linked into a published root; updates
// clone the node instead of mutating it in place.
type treapNode struct {
	key         string
	value       []byte
	priority    int64
	sub         int // subtree entry count (this node + both children)
	left, right *treapNode
}

// subCount is nil-safe subtree size.
func subCount(n *treapNode) int {
	if n == nil {
		return 0
	}
	return n.sub
}

// fix recomputes a freshly cloned node's subtree count from its children.
func (n *treapNode) fix() { n.sub = 1 + subCount(n.left) + subCount(n.right) }

// clone returns a fresh mutable copy of n; callers may mutate the copy
// freely until it is linked into a root.
func (n *treapNode) clone() *treapNode {
	c := *n
	return &c
}

// newTreap builds an empty tree.
func newTreap() *treap {
	return &treap{}
}

// priorityOf derives a node's heap priority from its key (FNV-1a). A
// seeded rand.Rand would also be deterministic per replica, but its
// stream position depends on operation *history* — a replica restored
// from a snapshot and one that applied the ops organically would hold
// differently shaped trees. Hashing the key makes the shape a pure
// function of the key set, and keeps any random source out of the apply
// path entirely.
func priorityOf(key string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int64(h >> 1) // keep priorities non-negative
}

// Len reports the number of entries.
func (t *treap) Len() int { return t.size }

// snapshot captures the current version of the tree in O(1). The returned
// view is immutable: later Put/Delete calls produce new roots and never
// touch the captured one.
func (t *treap) snapshot() treapSnapshot {
	return treapSnapshot{root: t.root, size: t.size}
}

// treapSnapshot is a point-in-time immutable view of a treap, safe to read
// from any goroutine concurrently with writes to the live tree.
type treapSnapshot struct {
	root *treapNode
	size int
}

// Len reports the number of entries in the captured version.
func (s treapSnapshot) Len() int { return s.size }

// All calls fn for every captured entry in ascending key order.
func (s treapSnapshot) All(fn func(key string, value []byte) bool) {
	allNodes(s.root, fn)
}

// Get returns the value stored under key.
func (t *treap) Get(key string) ([]byte, bool) {
	n := t.root
	for n != nil {
		switch c := strings.Compare(key, n.key); {
		case c == 0:
			return n.value, true
		case c < 0:
			n = n.left
		default:
			n = n.right
		}
	}
	return nil, false
}

// Put inserts or replaces the value under key, reporting whether the key
// already existed.
func (t *treap) Put(key string, value []byte) bool {
	var existed bool
	t.root, existed = t.put(t.root, key, value)
	if !existed {
		t.size++
	}
	return existed
}

func (t *treap) put(n *treapNode, key string, value []byte) (*treapNode, bool) {
	if n == nil {
		return &treapNode{key: key, value: value, priority: priorityOf(key), sub: 1}, false
	}
	nc := n.clone()
	switch c := strings.Compare(key, n.key); {
	case c == 0:
		nc.value = value
		return nc, true
	case c < 0:
		var existed bool
		nc.left, existed = t.put(n.left, key, value)
		nc.fix()
		if nc.left.priority > nc.priority {
			nc = rotateRight(nc)
		}
		return nc, existed
	default:
		var existed bool
		nc.right, existed = t.put(n.right, key, value)
		nc.fix()
		if nc.right.priority > nc.priority {
			nc = rotateLeft(nc)
		}
		return nc, existed
	}
}

// Delete removes key, reporting whether it existed.
func (t *treap) Delete(key string) bool {
	var existed bool
	t.root, existed = t.del(t.root, key)
	if existed {
		t.size--
	}
	return existed
}

func (t *treap) del(n *treapNode, key string) (*treapNode, bool) {
	if n == nil {
		return nil, false
	}
	switch c := strings.Compare(key, n.key); {
	case c < 0:
		nl, existed := t.del(n.left, key)
		if !existed {
			return n, false
		}
		nc := n.clone()
		nc.left = nl
		nc.fix()
		return nc, true
	case c > 0:
		nr, existed := t.del(n.right, key)
		if !existed {
			return n, false
		}
		nc := n.clone()
		nc.right = nr
		nc.fix()
		return nc, true
	default:
		return merge(n.left, n.right), true
	}
}

// merge joins two treaps where every key in a precedes every key in b,
// cloning the spine it descends so shared subtrees stay immutable.
func merge(a, b *treapNode) *treapNode {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.priority > b.priority:
		ac := a.clone()
		ac.right = merge(a.right, b)
		ac.fix()
		return ac
	default:
		bc := b.clone()
		bc.left = merge(a, b.left)
		bc.fix()
		return bc
	}
}

// rotateRight and rotateLeft rebalance freshly cloned path nodes: put()
// only rotates when the rotated child was just returned by its own
// recursive call — a private copy this update owns — so mutating both
// nodes in place is safe and avoids a second clone.
func rotateRight(n *treapNode) *treapNode {
	l := n.left
	n.left = l.right
	l.right = n
	n.fix()
	l.fix()
	return l
}

func rotateLeft(n *treapNode) *treapNode {
	r := n.right
	n.right = r.left
	r.left = n
	n.fix()
	r.fix()
	return r
}

// splitOff removes every entry with key >= at from the tree and returns
// them as an immutable snapshot, in O(log n) expected path copies — both
// halves share all untouched subtrees with the previous version, so
// concurrently captured snapshots keep observing the pre-split database.
// This is what makes a live partition split's delivery stall independent
// of how many keys move: the delivery goroutine only pays the path copy,
// while serializing the outgoing half happens later, off the hot path.
func (t *treap) splitOff(at string) treapSnapshot {
	left, right := splitNodes(t.root, at)
	t.root = left
	t.size = subCount(left)
	return treapSnapshot{root: right, size: subCount(right)}
}

func splitNodes(n *treapNode, at string) (l, r *treapNode) {
	if n == nil {
		return nil, nil
	}
	nc := n.clone()
	if strings.Compare(n.key, at) < 0 {
		ll, rr := splitNodes(n.right, at)
		nc.right = ll
		nc.fix()
		return nc, rr
	}
	ll, rr := splitNodes(n.left, at)
	nc.left = rr
	nc.fix()
	return ll, nc
}

// Range calls fn for every entry with lo <= key <= hi in ascending key
// order; fn returning false stops the iteration.
func (t *treap) Range(lo, hi string, fn func(key string, value []byte) bool) {
	rangeNodes(t.root, lo, hi, fn)
}

func rangeNodes(n *treapNode, lo, hi string, fn func(string, []byte) bool) bool {
	if n == nil {
		return true
	}
	if strings.Compare(n.key, lo) >= 0 {
		if !rangeNodes(n.left, lo, hi, fn) {
			return false
		}
	}
	if strings.Compare(n.key, lo) >= 0 && strings.Compare(n.key, hi) <= 0 {
		if !fn(n.key, n.value) {
			return false
		}
	}
	if strings.Compare(n.key, hi) <= 0 {
		if !rangeNodes(n.right, lo, hi, fn) {
			return false
		}
	}
	return true
}

// All calls fn for every entry in ascending key order.
func (t *treap) All(fn func(key string, value []byte) bool) {
	allNodes(t.root, fn)
}

func allNodes(n *treapNode, fn func(string, []byte) bool) bool {
	if n == nil {
		return true
	}
	if !allNodes(n.left, fn) {
		return false
	}
	if !fn(n.key, n.value) {
		return false
	}
	return allNodes(n.right, fn)
}
