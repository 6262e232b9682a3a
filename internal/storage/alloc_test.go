package storage

import (
	"testing"
)

// putBatchAllocsPerRecord measures the heap allocations an in-order
// 64-record PutBatch makes, per record.
func putBatchAllocsPerRecord(t *testing.T, l Log) float64 {
	t.Helper()
	const batch = 64
	recs := make([]Record, batch)
	data := make([]byte, 100)
	next := uint64(1)
	allocs := testing.AllocsPerRun(50, func() {
		for i := range recs {
			recs[i] = Record{Instance: next, Data: data}
			next++
		}
		if err := l.PutBatch(recs); err != nil {
			t.Fatal(err)
		}
	})
	return allocs / batch
}

// TestPutBatchAllocs pins the append path's allocations: a FileWAL frames
// records straight into its write buffer and keeps no copy of them, and a
// MemLog makes only the one exact-size copy it keeps.
func TestPutBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation inflates alloc counts")
	}
	w, err := OpenWAL(t.TempDir(), WALOptions{Mode: SyncEveryPut})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	got := putBatchAllocsPerRecord(t, w)
	if got >= 0.1 {
		t.Errorf("FileWAL.PutBatch: %.2f allocs per record, want 0", got)
	}
	got = putBatchAllocsPerRecord(t, NewMemLog())
	if got > 1 {
		t.Errorf("MemLog.PutBatch: %.2f allocs per record, want <= 1", got)
	}
}
