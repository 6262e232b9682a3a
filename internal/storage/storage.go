// Package storage provides the stable-storage substrates used by acceptors
// (vote logs) and replicas (checkpoints).
//
// Three layers are provided:
//
//   - Log: the acceptor log contract — durable Put/Get of per-instance
//     records plus prefix Trim (Section 5.1: acceptors log Phase 1B/2B
//     responses before replying, and trim coordinated with checkpoints).
//   - MemLog: volatile implementation, an instance-ordered slice of
//     exact-size record copies, standing in for the paper's in-memory
//     acceptors (which bound retention with pre-allocated buffers; here
//     Trim bounds it).
//   - FileWAL: a real, file-backed segmented write-ahead log with
//     synchronous and asynchronous modes and segment-granular trimming
//     (the Berkeley DB substitute).
//
// Disk timing for the simulation benchmarks lives in disk.go: a calibrated
// latency model for HDD/SSD × sync/async, wrapped around any Log.
package storage

import (
	"cmp"
	"errors"
	"slices"
	"sort"
	"sync"
)

// Record pairs a consensus instance with its durable record, for batched
// log appends.
type Record struct {
	Instance uint64
	Data     []byte
}

// Log is the acceptor stable-storage contract. Implementations must be
// safe for concurrent use.
type Log interface {
	// Put durably stores the record for a consensus instance. For
	// synchronous implementations Put returns after the record is
	// persisted; asynchronous ones may buffer.
	Put(instance uint64, record []byte) error
	// PutBatch durably stores several records with a single
	// stable-storage round trip (group commit): synchronous
	// implementations pay one write barrier for the whole batch instead
	// of one per record. Either every record is as durable as a Put
	// would have made it, or an error is returned and the caller must
	// assume none are.
	PutBatch(recs []Record) error
	// Get returns the record stored for an instance, or ok=false if the
	// instance was never stored or has been trimmed.
	Get(instance uint64) (record []byte, ok bool)
	// Trim discards all records with instance <= upTo, except instance
	// 0: that key is reserved for caller metadata (an acceptor's
	// promised ballot) and is pinned across trims. Implementations may
	// retain more than required but never less.
	Trim(upTo uint64) error
	// FirstRetained returns the lowest instance that is guaranteed still
	// retrievable (0 if nothing was trimmed yet).
	FirstRetained() uint64
	// LastInstance returns the highest instance ever stored (0 if none;
	// the reserved key 0 does not count). Its record may since have been
	// trimmed. Acceptors bound their scan of the log by it.
	LastInstance() uint64
	// Sync flushes any buffered records to stable storage.
	Sync() error
	// Close releases resources, flushing buffered data first.
	Close() error
}

// ErrLogClosed is returned by operations on a closed log.
var ErrLogClosed = errors.New("storage: log closed")

// metaInstance is the reserved metadata key exempt from trimming (the
// acceptor promise record; consensus instances start at 1).
const metaInstance = 0

// MemLog is an in-memory Log. It mirrors the paper's in-memory acceptor
// buffers: bounded retention is the caller's job via Trim. The zero value
// is ready to use.
//
// Records live in an instance-ordered slice, each an exact-size heap copy
// of what was put: acceptors vote in instance order, so Put appends, Get
// and rewrites binary-search, and Trim drops a prefix. The log's memory is
// its records plus 32 bytes of index per record.
type MemLog struct {
	mu      sync.RWMutex
	recs    []memRecord // instances > 0, ascending
	meta    []byte      // the pinned metadata record (key 0)
	hasMeta bool
	trimmed uint64
	last    uint64
	closed  bool
}

type memRecord struct {
	instance uint64
	data     []byte
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

var _ Log = (*MemLog)(nil)

// Put stores a copy of record for instance.
func (l *MemLog) Put(instance uint64, record []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	l.store(instance, record)
	return nil
}

// PutBatch stores copies of all records under one lock acquisition.
func (l *MemLog) PutBatch(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	for _, r := range recs {
		l.store(r.Instance, r.Data)
	}
	return nil
}

// store copies record into the log under l.mu. Writes at or below the
// trim watermark are stale and ignored.
func (l *MemLog) store(instance uint64, record []byte) {
	if instance != metaInstance && instance <= l.trimmed {
		return
	}
	cp := make([]byte, len(record))
	copy(cp, record)
	if instance == metaInstance {
		l.meta, l.hasMeta = cp, true
		return
	}
	l.last = max(l.last, instance)
	if n := len(l.recs); n == 0 || l.recs[n-1].instance < instance {
		l.recs = append(l.recs, memRecord{instance: instance, data: cp})
		return
	}
	i, found := l.search(instance)
	if found {
		l.recs[i].data = cp
		return
	}
	l.recs = slices.Insert(l.recs, i, memRecord{instance: instance, data: cp})
}

// search returns the position of instance in l.recs, or where it would
// be inserted.
func (l *MemLog) search(instance uint64) (int, bool) {
	return slices.BinarySearchFunc(l.recs, instance, func(r memRecord, inst uint64) int {
		return cmp.Compare(r.instance, inst)
	})
}

// Get returns the stored copy of the record for instance.
func (l *MemLog) Get(instance uint64) ([]byte, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if instance == metaInstance {
		return l.meta, l.hasMeta
	}
	i, found := l.search(instance)
	if !found {
		return nil, false
	}
	return l.recs[i].data, true
}

// Trim discards records for instances <= upTo. Once the retained records
// fill less than a quarter of the slice's capacity, they move to a slice
// sized for them, so the index shrinks with the log.
func (l *MemLog) Trim(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	if upTo <= l.trimmed {
		return nil
	}
	l.trimmed = upTo
	i := sort.Search(len(l.recs), func(j int) bool { return l.recs[j].instance > upTo })
	clear(l.recs[:i]) // the backing array must not pin trimmed records
	l.recs = l.recs[i:]
	if len(l.recs) < cap(l.recs)/4 {
		l.recs = slices.Clone(l.recs)
	}
	return nil
}

// FirstRetained returns the lowest guaranteed-retrievable instance.
func (l *MemLog) FirstRetained() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.trimmed == 0 {
		return 0
	}
	return l.trimmed + 1
}

// LastInstance returns the highest instance ever stored.
func (l *MemLog) LastInstance() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.last
}

// Len reports the number of retained records.
func (l *MemLog) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.hasMeta {
		return len(l.recs) + 1
	}
	return len(l.recs)
}

// Sync is a no-op for the in-memory log.
func (l *MemLog) Sync() error { return nil }

// Close marks the log closed: later writes fail, reads keep working.
func (l *MemLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}
