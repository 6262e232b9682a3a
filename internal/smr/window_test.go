package smr

import (
	"encoding/binary"
	"testing"

	"amcast/internal/core"
	"amcast/internal/transport"
)

func TestClientWindowBasics(t *testing.T) {
	w := newClientWindow(0)
	if dup, _ := w.check(1); dup {
		t.Fatal("fresh seq reported duplicate")
	}
	w.record(1, []byte("r1"))
	if dup, resp := w.check(1); !dup || string(resp) != "r1" {
		t.Fatalf("dup=%v resp=%q after record", dup, resp)
	}
	if w.floor != 1 {
		t.Fatalf("floor = %d, want 1", w.floor)
	}
	// Out of order: 3 executed before 2; floor waits, then jumps.
	w.record(3, []byte("r3"))
	if w.floor != 1 {
		t.Fatalf("floor = %d after gap, want 1", w.floor)
	}
	if dup, resp := w.check(3); !dup || string(resp) != "r3" {
		t.Fatalf("out-of-order seq lost: dup=%v resp=%q", dup, resp)
	}
	w.record(2, []byte("r2"))
	if w.floor != 3 {
		t.Fatalf("floor = %d after filling gap, want 3", w.floor)
	}
}

func TestClientWindowRestartFloor(t *testing.T) {
	w := newClientWindow(10)
	if dup, _ := w.check(5); !dup {
		t.Fatal("seq below restored floor not duplicate")
	}
	if dup, _ := w.check(11); dup {
		t.Fatal("seq above restored floor duplicate")
	}
}

// TestClientWindowGrowth drives a sparse sequence that exceeds the
// initial ring size: the window must grow and never forget an executed
// seq above the floor.
func TestClientWindowGrowth(t *testing.T) {
	w := newClientWindow(0)
	// Execute seqs 2, 4, 6, ... leaving odd gaps so the floor stays 0
	// and the span grows past windowSlotsMin.
	const n = windowSlotsMin * 4
	for s := uint64(2); s <= n; s += 2 {
		w.record(s, []byte{byte(s)})
	}
	for s := uint64(2); s <= n; s += 2 {
		if dup, _ := w.check(s); !dup {
			t.Fatalf("executed seq %d forgotten after growth", s)
		}
	}
	for s := uint64(1); s <= n; s += 2 {
		if dup, _ := w.check(s); dup {
			t.Fatalf("unexecuted seq %d reported duplicate", s)
		}
	}
}

// TestClientWindowOverflowSpill pins the ring at capacity: collisions
// beyond windowSlotsMax spill to the overflow map instead of forgetting
// executed commands.
func TestClientWindowOverflowSpill(t *testing.T) {
	w := newClientWindow(0)
	// Record seq 2 and a colliding seq far beyond the max ring span.
	w.record(2, []byte("lo"))
	far := uint64(2 + 4*windowSlotsMax)
	w.record(far, []byte("hi"))
	if dup, resp := w.check(2); !dup || string(resp) != "lo" {
		t.Fatalf("collision victim forgotten: dup=%v resp=%q", dup, resp)
	}
	if dup, resp := w.check(far); !dup || string(resp) != "hi" {
		t.Fatalf("collision winner lost: dup=%v resp=%q", dup, resp)
	}
}

// makeDelivery wraps a command for the given client/seq into a delivery.
func makeDelivery(client transport.ProcessID, seq uint64, add uint64) core.Delivery {
	var op [8]byte
	binary.LittleEndian.PutUint64(op[:], add)
	return core.Delivery{
		Group: 1,
		Data:  Command{Client: client, Seq: seq, Op: op[:]}.Encode(),
	}
}

// TestDeliverBatchDuplicateWithinBatch delivers the same command twice in
// one batch: it must execute exactly once, with both responses answered.
func TestDeliverBatchDuplicateWithinBatch(t *testing.T) {
	sm := &counterSM{}
	r := &Replica{
		cfg:   ReplicaConfig{Partition: 1, SM: sm},
		dedup: make(map[transport.ProcessID]*clientWindow),
	}

	r.deliverBatch([]core.Delivery{
		makeDelivery(9, 1, 5),
		makeDelivery(9, 2, 7),
		makeDelivery(9, 1, 5), // duplicate of the first, same batch
		makeDelivery(9, 3, 1),
	})
	if got := sm.Total(); got != 13 {
		t.Fatalf("total = %d, want 13 (duplicate re-executed?)", got)
	}
	if got := r.ExecutedCount(); got != 3 {
		t.Fatalf("executed = %d, want 3", got)
	}
	// A later batch repeating an old seq is also suppressed.
	r.deliverBatch([]core.Delivery{makeDelivery(9, 2, 7)})
	if got := sm.Total(); got != 13 {
		t.Fatalf("total = %d after cross-batch duplicate, want 13", got)
	}
}
