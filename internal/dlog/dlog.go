// Package dlog implements dLog (Section 6.2): a distributed shared log
// where multiple concurrent writers append data to one or multiple logs
// atomically, built on Multi-Ring Paxos state-machine replication.
//
// Each log maps to a multicast group; append, read and trim commands are
// multicast to the log's group, and multi-append commands to a group all
// log servers subscribe to, so appends spanning logs are ordered against
// everything else. Servers keep recent appends in an in-memory cache and
// write entries to disk synchronously or asynchronously (Section 7.3);
// a trim flushes the cache up to the trim position.
package dlog

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"amcast/internal/recovery"
	"amcast/internal/smr"
	"amcast/internal/storage"
	"amcast/internal/transport"
)

// LogID names one shared log. By convention a log's commands are multicast
// to the ring with the same numeric id.
type LogID uint32

// OpKind enumerates dLog operations (Table 2).
type OpKind uint8

const (
	// OpAppend appends a value to one log, returning its position.
	OpAppend OpKind = iota + 1
	// OpMultiAppend appends one value to several logs atomically.
	OpMultiAppend
	// OpRead returns the value at a position.
	OpRead
	// OpTrim discards log entries below a position.
	OpTrim
)

// Op is one dLog operation.
type Op struct {
	Kind  OpKind
	Log   LogID
	Pos   uint64
	Logs  []LogID // multi-append targets
	Value []byte
}

// Encode serializes the operation.
func (o Op) Encode() []byte {
	buf := make([]byte, 0, 1+4+8+2+4*len(o.Logs)+4+len(o.Value))
	buf = append(buf, byte(o.Kind))
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(o.Log))
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint64(tmp[:8], o.Pos)
	buf = append(buf, tmp[:8]...)
	binary.LittleEndian.PutUint16(tmp[:2], uint16(len(o.Logs)))
	buf = append(buf, tmp[:2]...)
	for _, l := range o.Logs {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(l))
		buf = append(buf, tmp[:4]...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(o.Value)))
	buf = append(buf, tmp[:4]...)
	return append(buf, o.Value...)
}

// DecodeOp parses an encoded operation.
func DecodeOp(buf []byte) (Op, error) {
	var o Op
	if len(buf) < 15 {
		return o, transport.ErrShortMessage
	}
	o.Kind = OpKind(buf[0])
	o.Log = LogID(binary.LittleEndian.Uint32(buf[1:5]))
	o.Pos = binary.LittleEndian.Uint64(buf[5:13])
	n := int(binary.LittleEndian.Uint16(buf[13:15]))
	buf = buf[15:]
	if len(buf) < 4*n+4 {
		return o, transport.ErrShortMessage
	}
	for i := 0; i < n; i++ {
		o.Logs = append(o.Logs, LogID(binary.LittleEndian.Uint32(buf[:4])))
		buf = buf[4:]
	}
	vn := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	if len(buf) < vn {
		return o, transport.ErrShortMessage
	}
	if vn > 0 {
		o.Value = append([]byte(nil), buf[:vn]...)
	}
	return o, nil
}

// Status codes for results.
type Status uint8

const (
	// StatusOK indicates success.
	StatusOK Status = iota + 1
	// StatusNotFound indicates an out-of-range or trimmed position.
	StatusNotFound
	// StatusBadRequest indicates an undecodable operation.
	StatusBadRequest
)

// Result answers one operation. Positions maps each log the executing
// server hosts to the assigned append position.
type Result struct {
	Status    Status
	Positions map[LogID]uint64
	Value     []byte
}

// Encode serializes the result. Positions are emitted in ascending LogID
// order: these bytes are a replica-produced response, so they must be
// identical on every replica — map iteration order is not.
func (r Result) Encode() []byte {
	buf := make([]byte, 0, 1+2+12*len(r.Positions)+4+len(r.Value))
	buf = append(buf, byte(r.Status))
	var tmp [8]byte
	binary.LittleEndian.PutUint16(tmp[:2], uint16(len(r.Positions)))
	buf = append(buf, tmp[:2]...)
	ids := make([]LogID, 0, len(r.Positions))
	for l := range r.Positions {
		ids = append(ids, l)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, l := range ids {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(l))
		buf = append(buf, tmp[:4]...)
		binary.LittleEndian.PutUint64(tmp[:8], r.Positions[l])
		buf = append(buf, tmp[:8]...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(r.Value)))
	buf = append(buf, tmp[:4]...)
	return append(buf, r.Value...)
}

// DecodeResult parses an encoded result.
func DecodeResult(buf []byte) (Result, error) {
	var r Result
	if len(buf) < 3 {
		return r, transport.ErrShortMessage
	}
	r.Status = Status(buf[0])
	n := int(binary.LittleEndian.Uint16(buf[1:3]))
	buf = buf[3:]
	if len(buf) < 12*n+4 {
		return r, transport.ErrShortMessage
	}
	if n > 0 {
		r.Positions = make(map[LogID]uint64, n)
	}
	for i := 0; i < n; i++ {
		l := LogID(binary.LittleEndian.Uint32(buf[:4]))
		r.Positions[l] = binary.LittleEndian.Uint64(buf[4:12])
		buf = buf[12:]
	}
	vn := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	if len(buf) < vn {
		return r, transport.ErrShortMessage
	}
	if vn > 0 {
		r.Value = append([]byte(nil), buf[:vn]...)
	}
	return r, nil
}

// logState is one hosted log's in-memory state.
type logState struct {
	base    uint64   // lowest retained position
	next    uint64   // next append position
	entries [][]byte // entries[i] holds position base+i (nil if evicted)
	bytes   int      // cached bytes, for the cache cap
}

// SM is the dLog state machine for one server, hosting a set of logs. It
// implements smr.StateMachine.
type SM struct {
	mu     sync.Mutex
	hosted map[LogID]*logState
	// disk receives every appended entry, keyed by (log, position);
	// wrap it in a storage.SimDisk to model sync/async device timing.
	disk storage.Log
	// cacheLimit bounds cached entry bytes per log (paper: 200 MB);
	// the oldest cached entries are dropped first (reads fall back to
	// disk).
	cacheLimit int

	// Snapshot pinning: while captures are outstanding, disk trims are
	// deferred so the background checkpoint writer can still resolve
	// cache-evicted entries from disk. The last capture's release
	// applies the pending trim (outside the lock).
	captures    int
	trimPending bool
}

// SMConfig configures a dLog state machine.
type SMConfig struct {
	// Hosted lists the logs this server replicates.
	Hosted []LogID
	// Disk persists appended entries; nil keeps entries in memory only.
	Disk storage.Log
	// CacheLimit bounds the in-memory cache per log in bytes
	// (default 200 MB, the paper's setting).
	CacheLimit int
}

// NewSM builds a dLog state machine.
func NewSM(cfg SMConfig) *SM {
	if cfg.CacheLimit == 0 {
		cfg.CacheLimit = 200 << 20
	}
	sm := &SM{
		hosted:     make(map[LogID]*logState, len(cfg.Hosted)),
		disk:       cfg.Disk,
		cacheLimit: cfg.CacheLimit,
	}
	for _, l := range cfg.Hosted {
		sm.hosted[l] = &logState{}
	}
	return sm
}

var (
	_ smr.StateMachine     = (*SM)(nil)
	_ smr.SnapshotCapturer = (*SM)(nil)
)

// diskKey packs (log, position) into a storage key.
func diskKey(l LogID, pos uint64) uint64 {
	return uint64(l)<<40 | (pos & (1<<40 - 1))
}

// diskTrimWatermark returns the largest watermark that is safe to hand to
// the backing store's Trim, and whether any trim is safe at all.
// storage.Log.Trim is a global prefix drop over the packed (log, position)
// keyspace, so the watermark is capped by the lowest hosted log's retained
// base — trimming key-wise past it would wipe lower-numbered logs'
// retained records wholesale. A hosted log still retaining key 0 (log 0,
// base 0) makes every watermark unsafe. Callers hold s.mu.
func (s *SM) diskTrimWatermark() (uint64, bool) {
	w := uint64(0)
	first := true
	//lint:allow determinism commutative min with an absorbing zero: the result is the same whatever order the hosted logs are visited in
	for l, ls := range s.hosted {
		k := diskKey(l, ls.base)
		if k == 0 {
			return 0, false
		}
		if first || k-1 < w {
			w, first = k-1, false
		}
	}
	return w, !first
}

// Execute applies one encoded operation.
//
//lint:deterministic
func (s *SM) Execute(_ transport.RingID, raw []byte) []byte {
	op, err := DecodeOp(raw)
	if err != nil {
		return Result{Status: StatusBadRequest}.Encode()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apply(op).Encode()
}

func (s *SM) apply(op Op) Result {
	switch op.Kind {
	case OpAppend:
		ls, ok := s.hosted[op.Log]
		if !ok {
			return Result{Status: StatusNotFound}
		}
		pos := s.append(op.Log, ls, op.Value)
		return Result{Status: StatusOK, Positions: map[LogID]uint64{op.Log: pos}}
	case OpMultiAppend:
		// Apply to the subset of addressed logs hosted here; other
		// partitions' servers handle theirs (same global order).
		positions := make(map[LogID]uint64)
		for _, l := range op.Logs {
			if ls, ok := s.hosted[l]; ok {
				positions[l] = s.append(l, ls, op.Value)
			}
		}
		if len(positions) == 0 {
			return Result{Status: StatusNotFound}
		}
		return Result{Status: StatusOK, Positions: positions}
	case OpRead:
		ls, ok := s.hosted[op.Log]
		if !ok || op.Pos < ls.base || op.Pos >= ls.next {
			return Result{Status: StatusNotFound}
		}
		v := ls.entries[op.Pos-ls.base]
		if v == nil && s.disk != nil {
			if rec, ok := s.disk.Get(diskKey(op.Log, op.Pos)); ok {
				v = rec
			}
		}
		if v == nil {
			return Result{Status: StatusNotFound}
		}
		return Result{Status: StatusOK, Value: append([]byte(nil), v...)}
	case OpTrim:
		ls, ok := s.hosted[op.Log]
		if !ok {
			return Result{Status: StatusNotFound}
		}
		if op.Pos > ls.next {
			op.Pos = ls.next
		}
		for ls.base < op.Pos {
			e := ls.entries[0]
			ls.bytes -= len(e)
			ls.entries = ls.entries[1:]
			ls.base++
		}
		if s.disk != nil {
			// A trim "flushes the cache up to the trim position and
			// creates a new log file on disk" (Section 7.3): trim
			// the backing store too — deferred while snapshot
			// captures are outstanding, so the checkpoint writer can
			// still resolve evicted entries.
			if s.captures > 0 {
				s.trimPending = true
			} else if w, ok := s.diskTrimWatermark(); ok {
				_ = s.disk.Trim(w)
			}
		}
		return Result{Status: StatusOK, Positions: map[LogID]uint64{op.Log: ls.base}}
	default:
		return Result{Status: StatusBadRequest}
	}
}

// append stores one entry, persists it and maintains the cache cap.
func (s *SM) append(l LogID, ls *logState, v []byte) uint64 {
	pos := ls.next
	ls.next++
	cp := append([]byte(nil), v...)
	ls.entries = append(ls.entries, cp)
	ls.bytes += len(cp)
	if s.disk != nil {
		_ = s.disk.Put(diskKey(l, pos), cp)
	}
	// Evict oldest cached values beyond the cap (entries stay addressable
	// via disk).
	for i := 0; ls.bytes > s.cacheLimit && i < len(ls.entries); i++ {
		if ls.entries[i] != nil {
			ls.bytes -= len(ls.entries[i])
			ls.entries[i] = nil
		}
	}
	return pos
}

// LenOf reports retained entries of a log (instrumentation).
func (s *SM) LenOf(l LogID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ls, ok := s.hosted[l]; ok {
		return int(ls.next - ls.base)
	}
	return 0
}

// logSnapshot is one hosted log's captured view. The entries slice header
// array is copied at capture time, but the entry byte slices themselves
// are shared: an appended entry is never mutated afterwards (eviction and
// trim only drop references from the live state), so the capture stays a
// faithful point-in-time image while the live log keeps moving.
type logSnapshot struct {
	log     LogID
	base    uint64
	next    uint64
	entries [][]byte
}

// smSnapshot adapts a captured set of logs to smr.StateSnapshot. While it
// is outstanding (until Release), the SM defers disk trims so the lazy
// disk reads in Serialize stay answerable.
type smSnapshot struct {
	sm       *SM
	logs     []logSnapshot // ascending log id
	released sync.Once
}

var _ smr.ReleasableSnapshot = (*smSnapshot)(nil)

// CaptureSnapshot captures every hosted log with O(cached entries)
// pointer copies — no entry bytes are touched, so capture cost is
// independent of log data volume. Entries already evicted to disk are
// resolved lazily by Serialize; the capture pins disk trims until
// Release so those reads cannot race a trim into silent holes.
func (s *SM) CaptureSnapshot() smr.StateSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.captures++
	snap := &smSnapshot{sm: s, logs: make([]logSnapshot, 0, len(s.hosted))}
	for l, ls := range s.hosted {
		entries := make([][]byte, len(ls.entries))
		copy(entries, ls.entries)
		snap.logs = append(snap.logs, logSnapshot{log: l, base: ls.base, next: ls.next, entries: entries})
	}
	sort.Slice(snap.logs, func(i, j int) bool { return snap.logs[i].log < snap.logs[j].log })
	return snap
}

// Release unpins the capture; the last outstanding release applies the
// disk trim deferred while captures were in flight. The trim I/O runs
// outside the lock so command execution never waits on it; the watermark
// computed under the lock only falls below bases that can only advance,
// so a capture taken after the unlock cannot lose entries to it.
func (sn *smSnapshot) Release() {
	sn.released.Do(func() {
		s := sn.sm
		s.mu.Lock()
		s.captures--
		var watermark uint64
		doTrim := s.captures == 0 && s.trimPending && s.disk != nil
		if doTrim {
			s.trimPending = false
			watermark, doTrim = s.diskTrimWatermark()
		}
		s.mu.Unlock()
		if doTrim {
			_ = s.disk.Trim(watermark)
		}
	})
}

// Serialize encodes the captured logs in ascending log-id order, so
// identical states serialize to identical (checksummable) bytes. Entries
// evicted from the cache before the capture are re-read from disk here,
// off the delivery path (safe until Release: disk trims are deferred).
func (sn *smSnapshot) Serialize() []byte {
	disk := sn.sm.disk
	var buf []byte
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(sn.logs)))
	buf = append(buf, tmp[:4]...)
	for _, ls := range sn.logs {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(ls.log))
		buf = append(buf, tmp[:4]...)
		binary.LittleEndian.PutUint64(tmp[:8], ls.base)
		buf = append(buf, tmp[:8]...)
		binary.LittleEndian.PutUint64(tmp[:8], ls.next)
		buf = append(buf, tmp[:8]...)
		for i, e := range ls.entries {
			v := e
			if v == nil && disk != nil {
				if rec, ok := disk.Get(diskKey(ls.log, ls.base+uint64(i))); ok {
					v = rec
				}
			}
			binary.LittleEndian.PutUint32(tmp[:4], uint32(len(v)))
			buf = append(buf, tmp[:4]...)
			buf = append(buf, v...)
		}
	}
	return buf
}

// Snapshot serializes all hosted logs.
func (s *SM) Snapshot() []byte {
	snap := s.CaptureSnapshot()
	buf := snap.Serialize()
	snap.(*smSnapshot).Release()
	return buf
}

// Restore replaces state with a snapshot.
func (s *SM) Restore(snap []byte) error {
	if len(snap) < 4 {
		return recovery.ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(snap[:4]))
	snap = snap[4:]
	hosted := make(map[LogID]*logState, n)
	for i := 0; i < n; i++ {
		if len(snap) < 20 {
			return recovery.ErrCorrupt
		}
		l := LogID(binary.LittleEndian.Uint32(snap[:4]))
		ls := &logState{
			base: binary.LittleEndian.Uint64(snap[4:12]),
			next: binary.LittleEndian.Uint64(snap[12:20]),
		}
		snap = snap[20:]
		count := int(ls.next - ls.base)
		for j := 0; j < count; j++ {
			if len(snap) < 4 {
				return recovery.ErrCorrupt
			}
			vn := int(binary.LittleEndian.Uint32(snap[:4]))
			snap = snap[4:]
			if len(snap) < vn {
				return recovery.ErrCorrupt
			}
			e := append([]byte(nil), snap[:vn]...)
			ls.entries = append(ls.entries, e)
			ls.bytes += vn
			snap = snap[vn:]
		}
		hosted[l] = ls
	}
	s.mu.Lock()
	s.hosted = hosted
	s.mu.Unlock()
	return nil
}

// Client is the dLog client API (Table 2).
type Client struct {
	cl *smr.Client
	// Global is the group all log servers subscribe to, for
	// multi-append. Zero disables multi-append.
	Global transport.RingID
	// Timeout per operation.
	Timeout time.Duration
	// Partitions is the number of distinct partitions hosting logs;
	// MultiAppend waits for one response per involved partition. Zero
	// means one partition per log.
	Partitions int
}

// NewClient builds a dLog client.
func NewClient(cl *smr.Client, global transport.RingID) *Client {
	return &Client{cl: cl, Global: global, Timeout: 10 * time.Second}
}

// OverloadBackoffs reports how many times a coordinator shed one of this
// client's operations under admission control and the underlying smr
// client backed off (bounded, jittered) instead of retrying blindly.
// Transient overload never surfaces to callers; only sustained overload
// fails an operation, with an error wrapping ring.ErrOverloaded.
func (c *Client) OverloadBackoffs() uint64 { return c.cl.OverloadBackoffs() }

// groupOf maps a log to its multicast group (1:1 by convention).
func groupOf(l LogID) transport.RingID { return transport.RingID(l) }

// Append appends v to log l and returns the assigned position.
func (c *Client) Append(l LogID, v []byte) (uint64, error) {
	op := Op{Kind: OpAppend, Log: l, Value: v}
	resps, err := c.cl.Submit([]transport.RingID{groupOf(l)}, op.Encode(), []transport.RingID{groupOf(l)}, 1, c.Timeout)
	if err != nil {
		return 0, err
	}
	res, err := DecodeResult(resps[0])
	if err != nil {
		return 0, err
	}
	if res.Status != StatusOK {
		return 0, fmt.Errorf("dlog: append to %d: status %d", l, res.Status)
	}
	return res.Positions[l], nil
}

// MultiAppend appends v to every log in logs atomically and returns the
// positions per log. Requires a global group and one response from every
// involved partition; it assumes each log lives on its own partition (use
// MultiAppendN when one server hosts several of the logs).
func (c *Client) MultiAppend(logs []LogID, v []byte) (map[LogID]uint64, error) {
	want := len(logs)
	if c.Partitions > 0 && c.Partitions < want {
		want = c.Partitions
	}
	return c.MultiAppendN(logs, v, want)
}

// MultiAppendN is MultiAppend with an explicit count of distinct partitions
// hosting the logs (responses are counted per partition).
func (c *Client) MultiAppendN(logs []LogID, v []byte, wantPartitions int) (map[LogID]uint64, error) {
	if c.Global == 0 {
		return nil, fmt.Errorf("dlog: multi-append requires a global group")
	}
	op := Op{Kind: OpMultiAppend, Logs: logs, Value: v}
	resps, err := c.cl.Submit([]transport.RingID{c.Global}, op.Encode(), nil, wantPartitions, c.Timeout)
	if err != nil {
		return nil, err
	}
	out := make(map[LogID]uint64, len(logs))
	for _, raw := range resps {
		res, err := DecodeResult(raw)
		if err != nil {
			return nil, err
		}
		if res.Status != StatusOK {
			continue
		}
		for l, p := range res.Positions {
			out[l] = p
		}
	}
	if len(out) != len(logs) {
		return out, fmt.Errorf("dlog: multi-append reached %d/%d logs", len(out), len(logs))
	}
	return out, nil
}

// Read returns the value at position p in log l.
func (c *Client) Read(l LogID, p uint64) ([]byte, error) {
	op := Op{Kind: OpRead, Log: l, Pos: p}
	resps, err := c.cl.Submit([]transport.RingID{groupOf(l)}, op.Encode(), []transport.RingID{groupOf(l)}, 1, c.Timeout)
	if err != nil {
		return nil, err
	}
	res, err := DecodeResult(resps[0])
	if err != nil {
		return nil, err
	}
	if res.Status != StatusOK {
		return nil, fmt.Errorf("dlog: read %d@%d: status %d", l, p, res.Status)
	}
	return res.Value, nil
}

// Trim discards entries of log l below position p.
func (c *Client) Trim(l LogID, p uint64) error {
	op := Op{Kind: OpTrim, Log: l, Pos: p}
	resps, err := c.cl.Submit([]transport.RingID{groupOf(l)}, op.Encode(), []transport.RingID{groupOf(l)}, 1, c.Timeout)
	if err != nil {
		return err
	}
	res, err := DecodeResult(resps[0])
	if err != nil {
		return err
	}
	if res.Status != StatusOK {
		return fmt.Errorf("dlog: trim %d@%d: status %d", l, p, res.Status)
	}
	return nil
}
