package dlog

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"amcast/internal/storage"
)

func TestOpRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpAppend, Log: 1, Value: []byte("entry")},
		{Kind: OpMultiAppend, Logs: []LogID{1, 2, 9}, Value: []byte("x")},
		{Kind: OpRead, Log: 2, Pos: 42},
		{Kind: OpTrim, Log: 3, Pos: 100},
	}
	for _, op := range ops {
		got, err := DecodeOp(op.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(op, got) {
			t.Errorf("round trip: got %+v want %+v", got, op)
		}
	}
}

func TestOpDecodeTruncated(t *testing.T) {
	full := (Op{Kind: OpMultiAppend, Logs: []LogID{1, 2}, Value: []byte("value")}).Encode()
	for i := 0; i < len(full); i++ {
		if _, err := DecodeOp(full[:i]); err == nil {
			t.Fatalf("accepted truncation at %d", i)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	r := Result{
		Status:    StatusOK,
		Positions: map[LogID]uint64{1: 10, 7: 3},
		Value:     []byte("payload"),
	}
	got, err := DecodeResult(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Errorf("round trip: got %+v want %+v", got, r)
	}
}

func TestOpRoundTripQuick(t *testing.T) {
	f := func(kind uint8, logID uint32, pos uint64, value []byte) bool {
		op := Op{Kind: OpKind(kind), Log: LogID(logID), Pos: pos, Value: value}
		got, err := DecodeOp(op.Encode())
		if err != nil {
			return false
		}
		return got.Kind == op.Kind && got.Log == op.Log && got.Pos == op.Pos &&
			bytes.Equal(got.Value, op.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func execOp(t *testing.T, sm *SM, op Op) Result {
	t.Helper()
	res, err := DecodeResult(sm.Execute(1, op.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSMAppendReadTrim(t *testing.T) {
	sm := NewSM(SMConfig{Hosted: []LogID{1}})
	r := execOp(t, sm, Op{Kind: OpAppend, Log: 1, Value: []byte("a")})
	if r.Status != StatusOK || r.Positions[1] != 0 {
		t.Fatalf("first append = %+v", r)
	}
	r = execOp(t, sm, Op{Kind: OpAppend, Log: 1, Value: []byte("b")})
	if r.Positions[1] != 1 {
		t.Fatalf("second append = %+v", r)
	}
	r = execOp(t, sm, Op{Kind: OpRead, Log: 1, Pos: 0})
	if r.Status != StatusOK || string(r.Value) != "a" {
		t.Fatalf("read = %+v", r)
	}
	r = execOp(t, sm, Op{Kind: OpTrim, Log: 1, Pos: 1})
	if r.Status != StatusOK {
		t.Fatalf("trim = %+v", r)
	}
	if r := execOp(t, sm, Op{Kind: OpRead, Log: 1, Pos: 0}); r.Status != StatusNotFound {
		t.Errorf("read of trimmed pos = %+v", r)
	}
	if r := execOp(t, sm, Op{Kind: OpRead, Log: 1, Pos: 1}); r.Status != StatusOK {
		t.Errorf("read above trim = %+v", r)
	}
	if sm.LenOf(1) != 1 {
		t.Errorf("LenOf = %d", sm.LenOf(1))
	}
	if sm.LenOf(99) != 0 {
		t.Errorf("LenOf unknown log = %d", sm.LenOf(99))
	}
}

func TestSMUnhostedLog(t *testing.T) {
	sm := NewSM(SMConfig{Hosted: []LogID{1}})
	if r := execOp(t, sm, Op{Kind: OpAppend, Log: 9, Value: []byte("x")}); r.Status != StatusNotFound {
		t.Errorf("append to unhosted = %+v", r)
	}
	if r := execOp(t, sm, Op{Kind: OpMultiAppend, Logs: []LogID{9}, Value: nil}); r.Status != StatusNotFound {
		t.Errorf("multi-append to unhosted = %+v", r)
	}
}

func TestSMMultiAppendSubset(t *testing.T) {
	sm := NewSM(SMConfig{Hosted: []LogID{1, 2}})
	r := execOp(t, sm, Op{Kind: OpMultiAppend, Logs: []LogID{1, 2, 3}, Value: []byte("m")})
	if r.Status != StatusOK || len(r.Positions) != 2 {
		t.Fatalf("multi-append = %+v", r)
	}
}

func TestSMCacheEvictionFallsBackToDisk(t *testing.T) {
	disk := storage.NewMemLog()
	sm := NewSM(SMConfig{Hosted: []LogID{1}, Disk: disk, CacheLimit: 64})
	big := bytes.Repeat([]byte("x"), 40)
	for i := 0; i < 5; i++ {
		execOp(t, sm, Op{Kind: OpAppend, Log: 1, Value: big})
	}
	// Early entries are evicted from cache, but reads must still work
	// via the backing disk.
	r := execOp(t, sm, Op{Kind: OpRead, Log: 1, Pos: 0})
	if r.Status != StatusOK || !bytes.Equal(r.Value, big) {
		t.Fatalf("read of evicted entry = status %d", r.Status)
	}
}

func TestSMSnapshotRestore(t *testing.T) {
	sm := NewSM(SMConfig{Hosted: []LogID{1, 2}})
	for i := 0; i < 10; i++ {
		execOp(t, sm, Op{Kind: OpAppend, Log: 1, Value: []byte{byte(i)}})
	}
	execOp(t, sm, Op{Kind: OpAppend, Log: 2, Value: []byte("two")})
	execOp(t, sm, Op{Kind: OpTrim, Log: 1, Pos: 4})
	snap := sm.Snapshot()

	sm2 := NewSM(SMConfig{Hosted: []LogID{1, 2}})
	if err := sm2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if sm2.LenOf(1) != 6 || sm2.LenOf(2) != 1 {
		t.Fatalf("restored lens = %d, %d", sm2.LenOf(1), sm2.LenOf(2))
	}
	r := execOp(t, sm2, Op{Kind: OpRead, Log: 1, Pos: 7})
	if r.Status != StatusOK || r.Value[0] != 7 {
		t.Fatalf("restored read = %+v", r)
	}
	// Appends continue at the right position.
	r = execOp(t, sm2, Op{Kind: OpAppend, Log: 1, Value: []byte("next")})
	if r.Positions[1] != 10 {
		t.Fatalf("append after restore = %+v", r)
	}
	if err := sm2.Restore([]byte{1}); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

func TestSMGarbageOp(t *testing.T) {
	sm := NewSM(SMConfig{Hosted: []LogID{1}})
	res, err := DecodeResult(sm.Execute(1, []byte{0xff, 0x01}))
	if err != nil || res.Status != StatusBadRequest {
		t.Errorf("garbage op = %+v, %v", res, err)
	}
}

// TestSMCaptureImmutableUnderAppends: a capture taken at one point must
// serialize to exactly that point's state even as the live log keeps
// appending and trimming (the cheap-capture contract of the non-blocking
// checkpoint pipeline).
func TestSMCaptureImmutableUnderAppends(t *testing.T) {
	sm := NewSM(SMConfig{Hosted: []LogID{1}})
	for i := 0; i < 5; i++ {
		execOp(t, sm, Op{Kind: OpAppend, Log: 1, Value: []byte{byte(i)}})
	}
	snap := sm.CaptureSnapshot()

	// Keep moving after the capture.
	for i := 5; i < 20; i++ {
		execOp(t, sm, Op{Kind: OpAppend, Log: 1, Value: []byte{byte(i)}})
	}
	execOp(t, sm, Op{Kind: OpTrim, Log: 1, Pos: 10})

	sm2 := NewSM(SMConfig{Hosted: []LogID{1}})
	if err := sm2.Restore(snap.Serialize()); err != nil {
		t.Fatal(err)
	}
	if sm2.LenOf(1) != 5 {
		t.Fatalf("restored capture len = %d, want 5", sm2.LenOf(1))
	}
	for i := 0; i < 5; i++ {
		r := execOp(t, sm2, Op{Kind: OpRead, Log: 1, Pos: uint64(i)})
		if r.Status != StatusOK || r.Value[0] != byte(i) {
			t.Fatalf("capture read %d = %+v", i, r)
		}
	}
}

// TestSMSnapshotDeterministic: two servers that applied the same commands
// must produce byte-identical snapshots (logs are serialized in ascending
// log-id order, not map order), so snapshot checksums are comparable.
func TestSMSnapshotDeterministic(t *testing.T) {
	build := func() *SM {
		sm := NewSM(SMConfig{Hosted: []LogID{5, 1, 9, 3, 7}})
		for _, l := range []LogID{9, 1, 7, 3, 5} {
			for i := 0; i < 3; i++ {
				execOp(t, sm, Op{Kind: OpAppend, Log: l, Value: []byte{byte(l), byte(i)}})
			}
		}
		return sm
	}
	a, b := build().Snapshot(), build().Snapshot()
	if !bytes.Equal(a, b) {
		t.Error("identical states serialized to different bytes")
	}
	// And repeated snapshots of one SM agree too.
	sm := build()
	if !bytes.Equal(sm.Snapshot(), sm.Snapshot()) {
		t.Error("repeated snapshots differ")
	}
}

// TestSMCaptureDefersTrimUntilRelease: entries evicted to disk before a
// capture must stay resolvable until the capture is released — a trim
// racing the background checkpoint writer would otherwise delete them
// from disk and the checkpoint would silently serialize holes. After the
// release, the deferred disk trim must apply.
func TestSMCaptureDefersTrimUntilRelease(t *testing.T) {
	disk := storage.NewMemLog()
	sm := NewSM(SMConfig{Hosted: []LogID{1}, Disk: disk, CacheLimit: 64})
	big := bytes.Repeat([]byte("x"), 40)
	for i := 0; i < 5; i++ {
		execOp(t, sm, Op{Kind: OpAppend, Log: 1, Value: big})
	}
	// Position 0 is evicted from the cache by now (64 B cap, 40 B entries).
	snap := sm.CaptureSnapshot()
	// A trim lands before the checkpoint writer serializes: the cache
	// drops the early positions, but the disk trim is deferred.
	execOp(t, sm, Op{Kind: OpTrim, Log: 1, Pos: 5})

	sm2 := NewSM(SMConfig{Hosted: []LogID{1}})
	if err := sm2.Restore(snap.Serialize()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r := execOp(t, sm2, Op{Kind: OpRead, Log: 1, Pos: uint64(i)})
		if r.Status != StatusOK || !bytes.Equal(r.Value, big) {
			t.Fatalf("restored read %d = status %d (len %d); capture lost an evicted entry", i, r.Status, len(r.Value))
		}
	}

	// Releasing the capture applies the deferred disk trim.
	if _, ok := disk.Get(diskKey(1, 0)); !ok {
		t.Fatal("disk entry gone before the capture was released")
	}
	snap.(interface{ Release() }).Release()
	if _, ok := disk.Get(diskKey(1, 0)); ok {
		t.Error("deferred disk trim not applied on release")
	}
	// Double release is harmless and does not unpin a later capture.
	snap.(interface{ Release() }).Release()
}

// TestSMTrimDoesNotWipeOtherLogsOnSharedDisk: the backing store's Trim is
// a global prefix drop over the packed (log, position) keyspace, so
// trimming a higher-numbered log must not discard lower-numbered logs'
// disk records — cache-evicted entries of those logs must stay readable
// (and checkpointable).
func TestSMTrimDoesNotWipeOtherLogsOnSharedDisk(t *testing.T) {
	disk := storage.NewMemLog()
	sm := NewSM(SMConfig{Hosted: []LogID{1, 2}, Disk: disk, CacheLimit: 64})
	big := bytes.Repeat([]byte("y"), 40)
	for i := 0; i < 5; i++ {
		execOp(t, sm, Op{Kind: OpAppend, Log: 1, Value: big})
	}
	execOp(t, sm, Op{Kind: OpAppend, Log: 2, Value: []byte("two-0")})
	execOp(t, sm, Op{Kind: OpAppend, Log: 2, Value: []byte("two-1")})

	// Trim log 2: log 1's disk records (including cache-evicted position
	// 0) must survive.
	execOp(t, sm, Op{Kind: OpTrim, Log: 2, Pos: 1})
	r := execOp(t, sm, Op{Kind: OpRead, Log: 1, Pos: 0})
	if r.Status != StatusOK || !bytes.Equal(r.Value, big) {
		t.Fatalf("log 1 evicted entry lost after trimming log 2: status %d", r.Status)
	}
	// And the snapshot still carries it.
	sm2 := NewSM(SMConfig{Hosted: []LogID{1, 2}})
	if err := sm2.Restore(sm.Snapshot()); err != nil {
		t.Fatal(err)
	}
	r = execOp(t, sm2, Op{Kind: OpRead, Log: 1, Pos: 0})
	if r.Status != StatusOK || !bytes.Equal(r.Value, big) {
		t.Fatalf("restored log 1 entry lost after trimming log 2: status %d", r.Status)
	}
	// Once log 1 itself is trimmed, the shared watermark may advance and
	// drop its prefix from disk.
	execOp(t, sm, Op{Kind: OpTrim, Log: 1, Pos: 5})
	if _, ok := disk.Get(diskKey(1, 0)); ok {
		t.Error("log 1 disk prefix survived its own trim")
	}
}

// TestSMTrimWithLogZeroHostedNeverTrimsDisk: a hosted log 0 still
// retaining position 0 occupies disk key 0, so no global watermark is
// safe — trimming another log must leave the disk untouched rather than
// wrapping the watermark and wiping log 0.
func TestSMTrimWithLogZeroHostedNeverTrimsDisk(t *testing.T) {
	disk := storage.NewMemLog()
	sm := NewSM(SMConfig{Hosted: []LogID{0, 2}, Disk: disk, CacheLimit: 64})
	big := bytes.Repeat([]byte("z"), 40)
	for i := 0; i < 5; i++ {
		execOp(t, sm, Op{Kind: OpAppend, Log: 0, Value: big})
	}
	execOp(t, sm, Op{Kind: OpAppend, Log: 2, Value: []byte("two")})
	execOp(t, sm, Op{Kind: OpTrim, Log: 2, Pos: 1})
	// Log 0's records — including the cache-evicted position 0 at disk
	// key 0 — must survive.
	r := execOp(t, sm, Op{Kind: OpRead, Log: 0, Pos: 0})
	if r.Status != StatusOK || !bytes.Equal(r.Value, big) {
		t.Fatalf("log 0 entry lost after trimming log 2: status %d", r.Status)
	}
}
