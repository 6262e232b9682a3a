package store

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTreapBasic(t *testing.T) {
	tr := newTreap()
	if _, ok := tr.Get("a"); ok {
		t.Error("empty treap returned a value")
	}
	if existed := tr.Put("a", []byte("1")); existed {
		t.Error("fresh insert reported existed")
	}
	if existed := tr.Put("a", []byte("2")); !existed {
		t.Error("overwrite not reported")
	}
	v, ok := tr.Get("a")
	if !ok || string(v) != "2" {
		t.Errorf("Get = %q, %v", v, ok)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
	if !tr.Delete("a") {
		t.Error("delete of existing key failed")
	}
	if tr.Delete("a") {
		t.Error("double delete succeeded")
	}
	if tr.Len() != 0 {
		t.Errorf("Len after delete = %d", tr.Len())
	}
}

func TestTreapOrderedIteration(t *testing.T) {
	tr := newTreap()
	keys := []string{"melon", "apple", "zebra", "kiwi", "banana"}
	for _, k := range keys {
		tr.Put(k, []byte(k))
	}
	var got []string
	tr.All(func(k string, _ []byte) bool {
		got = append(got, k)
		return true
	})
	want := append([]string(nil), keys...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration order %v, want %v", got, want)
		}
	}
}

func TestTreapRange(t *testing.T) {
	tr := newTreap()
	for i := 0; i < 100; i++ {
		tr.Put(fmt.Sprintf("key%03d", i), []byte{byte(i)})
	}
	var got []string
	tr.Range("key010", "key015", func(k string, _ []byte) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 6 || got[0] != "key010" || got[5] != "key015" {
		t.Errorf("range = %v", got)
	}
	// Early stop.
	count := 0
	tr.Range("key000", "key099", func(string, []byte) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop iterated %d", count)
	}
	// Empty range.
	got = nil
	tr.Range("zzz", "zzzz", func(k string, _ []byte) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 0 {
		t.Errorf("empty range returned %v", got)
	}
}

// TestTreapMatchesMap is a property test: after any sequence of puts and
// deletes, the treap agrees with a reference map and iterates sorted.
func TestTreapMatchesMap(t *testing.T) {
	f := func(seed int64, opsRaw []uint16) bool {
		tr := newTreap()
		ref := make(map[string]byte)
		rng := rand.New(rand.NewSource(seed))
		for _, raw := range opsRaw {
			key := fmt.Sprintf("k%02d", raw%50)
			switch rng.Intn(3) {
			case 0, 1:
				val := byte(raw >> 8)
				tr.Put(key, []byte{val})
				ref[key] = val
			case 2:
				delete(ref, key)
				tr.Delete(key)
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Get(k)
			if !ok || got[0] != v {
				return false
			}
		}
		var keys []string
		tr.All(func(k string, _ []byte) bool {
			keys = append(keys, k)
			return true
		})
		return sort.StringsAreSorted(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTreapBalancedOnSequentialKeys bounds the tree depth for keys in the
// YCSB shape ("user" + zero-padded decimal), which differ only in their
// last bytes: the key-derived priorities must still look random, or the
// treap degenerates and every Get walks a long path.
func TestTreapBalancedOnSequentialKeys(t *testing.T) {
	tr := newTreap()
	const n = 10000
	for i := 0; i < n; i++ {
		tr.Put(fmt.Sprintf("user%019d", i), []byte("v"))
	}
	var depth func(*treapNode) int
	depth = func(nd *treapNode) int {
		if nd == nil {
			return 0
		}
		return 1 + max(depth(nd.left), depth(nd.right))
	}
	if got, bound := depth(tr.root), 3*int(math.Log2(n)); got > bound {
		t.Fatalf("depth %d for %d sequential keys, want <= %d (3 log2 n)", got, n, bound)
	}
}

func TestTreapLarge(t *testing.T) {
	tr := newTreap()
	const n = 10000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		tr.Put(fmt.Sprintf("key%08d", i), []byte("v"))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i += 997 {
		if _, ok := tr.Get(fmt.Sprintf("key%08d", i)); !ok {
			t.Fatalf("missing key %d", i)
		}
	}
}

// TestTreapSnapshotImmutableUnderMutation: a captured snapshot must keep
// serving the exact capture-point state while the live tree is overwritten,
// shrunk and regrown (the copy-on-write property the non-blocking
// checkpoint pipeline rests on).
func TestTreapSnapshotImmutableUnderMutation(t *testing.T) {
	tr := newTreap()
	want := make(map[string]string)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key%04d", i)
		v := fmt.Sprintf("v%d", i)
		tr.Put(k, []byte(v))
		want[k] = v
	}
	snap := tr.snapshot()

	// Mutate heavily: overwrite all, delete the even half, add new keys.
	for i := 0; i < 1000; i++ {
		tr.Put(fmt.Sprintf("key%04d", i), []byte("CLOBBERED"))
	}
	for i := 0; i < 1000; i += 2 {
		tr.Delete(fmt.Sprintf("key%04d", i))
	}
	for i := 0; i < 500; i++ {
		tr.Put(fmt.Sprintf("new%04d", i), []byte("x"))
	}

	if snap.Len() != len(want) {
		t.Fatalf("snapshot Len = %d, want %d", snap.Len(), len(want))
	}
	got := make(map[string]string)
	var keys []string
	snap.All(func(k string, v []byte) bool {
		got[k] = string(v)
		keys = append(keys, k)
		return true
	})
	if !sort.StringsAreSorted(keys) {
		t.Error("snapshot iteration not sorted")
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot iterated %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("snapshot[%s] = %q, want %q", k, got[k], v)
		}
	}
	// And the live tree reflects the mutations, not the snapshot.
	if v, ok := tr.Get("key0001"); !ok || string(v) != "CLOBBERED" {
		t.Error("live tree lost its mutations")
	}
	if _, ok := tr.Get("key0000"); ok {
		t.Error("live tree kept a deleted key")
	}
}

// TestSMCaptureConcurrentWithWrites drives SM.CaptureSnapshot/Serialize
// from a background goroutine while the state machine keeps executing —
// the race detector guards the COW invariants, and every serialized
// snapshot must be a decodable, internally consistent database image.
func TestSMCaptureConcurrentWithWrites(t *testing.T) {
	sm := NewSM()
	for i := 0; i < 200; i++ {
		op := Op{Kind: OpInsert, Key: fmt.Sprintf("k%04d", i), Value: []byte("init")}
		sm.Execute(1, op.Encode())
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			snap := sm.CaptureSnapshot()
			buf := snap.Serialize()
			probe := NewSM()
			if err := probe.Restore(buf); err != nil {
				done <- fmt.Errorf("snapshot %d undecodable: %w", n, err)
				return
			}
		}
	}()
	for round := 0; round < 50; round++ {
		for i := 0; i < 200; i++ {
			op := Op{Kind: OpUpdate, Key: fmt.Sprintf("k%04d", i), Value: []byte(fmt.Sprintf("r%d", round))}
			sm.Execute(1, op.Encode())
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
