package smr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/core"
	"amcast/internal/metrics"
	"amcast/internal/recovery"
	"amcast/internal/trace"
	"amcast/internal/transport"
)

// StateMachine is the deterministic service a Replica replicates.
// Execute, Snapshot and Restore are always invoked from a single
// goroutine.
type StateMachine interface {
	// Execute applies one operation and returns the response sent back
	// to the client.
	Execute(group transport.RingID, op []byte) []byte
	// Snapshot serializes the complete state.
	Snapshot() []byte
	// Restore replaces the state with a snapshot.
	Restore(snapshot []byte) error
}

// StateSnapshot is an immutable point-in-time capture of a state
// machine's state. Serialize encodes the captured state; it may be called
// from a background goroutine concurrently with new commands executing
// against the live state, so implementations must not read mutable state.
type StateSnapshot interface {
	Serialize() []byte
}

// SnapshotCapturer is an optional StateMachine extension for non-blocking
// checkpoints: CaptureSnapshot returns a cheap (ideally O(1)) immutable
// view of the current state, letting the replica hand serialization to a
// background checkpoint writer instead of stalling delivery for the full
// encoding. CaptureSnapshot is called from the delivery goroutine at a
// batch boundary; the returned snapshot must reflect exactly the state
// after the last executed command.
type SnapshotCapturer interface {
	CaptureSnapshot() StateSnapshot
}

// ReleasableSnapshot is an optional StateSnapshot extension for state
// machines that pin resources while a capture is outstanding (e.g. dLog
// defers disk trims so lazily-resolved entries stay readable). The
// checkpoint writer calls Release exactly once per capture — after
// Serialize, or when the capture is superseded or dropped at shutdown.
type ReleasableSnapshot interface {
	Release()
}

// releaseSnapshot releases a capture's pinned resources, if any.
func releaseSnapshot(s StateSnapshot) {
	if r, ok := s.(ReleasableSnapshot); ok {
		r.Release()
	}
}

// ReplicaConfig configures a replica process.
type ReplicaConfig struct {
	// Self is this replica's process id.
	Self transport.ProcessID
	// Partition identifies the replica's partition. By convention it is
	// the partition's own ring id; it tags responses so clients can
	// count distinct partitions on multi-partition operations.
	Partition transport.RingID
	// Groups is the subscription: the partition's ring(s) plus any
	// global ring. Replicas subscribing to the same set form a
	// partition in the sense of Section 5.2.
	Groups []transport.RingID
	// Peers are the other replicas of the same partition, used for
	// remote checkpoints during recovery.
	Peers []transport.ProcessID

	// Node is the Multi-Ring Paxos endpoint (not yet subscribed; the
	// replica subscribes after recovery so StartVector can be applied).
	// Build it with BuildNode, which handles recovery.
	Node *core.Node
	// Transport sends client responses and recovery RPC replies.
	Transport transport.Transport
	// Service is the non-consensus message channel of this process's
	// router.
	Service <-chan transport.Message
	// SM is the replicated state machine.
	SM StateMachine
	// Checkpoints persists checkpoints (required when CheckpointEvery
	// or trim is used).
	Checkpoints recovery.Store
	// CheckpointEvery takes a checkpoint after this many commands.
	// Zero disables periodic checkpoints.
	CheckpointEvery int
	// SyncCheckpoints forces the legacy blocking behaviour: the full
	// serialization and durable write run inline on the delivery
	// goroutine, stalling every subscribed group for the duration. Only
	// for comparison benchmarks (cmd/bench -ckpt); production replicas
	// leave it false and use the background checkpoint writer.
	SyncCheckpoints bool
	// ServiceHook, if set, is offered service messages the replica does
	// not handle itself (e.g. MRP-Store's partition-split range
	// transfers). It runs on the replica's service goroutine; it returns
	// true when it consumed the message.
	ServiceHook func(transport.Message) bool
	// Tracer, when set, records "apply" spans for sampled deliveries and
	// rides the trace context back on the client response frame. Purely
	// telemetry; never feeds replicated state.
	Tracer *trace.Recorder
}

// Replica drives a replicated state machine: it subscribes to the
// partition's groups, executes delivered commands, responds to clients,
// checkpoints, answers the trim protocol and serves recovery RPCs.
type Replica struct {
	cfg    ReplicaConfig
	tr     transport.Transport
	snapSM SnapshotCapturer // non-nil when SM supports cheap capture

	// applyGate serializes command application (write side, held across
	// deliverBatch) against local reads and ForceCheckpoint (read side):
	// those must observe only batch-boundary states, the ones appliedVec
	// and the dedup table describe.
	applyGate sync.RWMutex

	// Read-index state: appliedVec is the delivered prefix whose
	// commands have all been executed (advanced by the node's
	// batch-boundary callback, including skip-only flushes); waiters
	// park until it covers their requirement.
	readMu      sync.Mutex
	appliedVec  recovery.Vector
	readWaiters []*readWaiter
	readWait    *metrics.Histogram
	localReads  atomic.Uint64

	// mu guards safeVec/safeEpoch, the only state shared with the
	// service loop (trim and recovery RPCs). Everything below it is owned
	// by the merge goroutine, so batch execution never holds a lock a
	// service RPC could wait on.
	mu        sync.Mutex
	safeVec   recovery.Vector // vector of the last durable checkpoint
	safeEpoch uint64          // subscription epoch of that checkpoint

	// resubArmed is set while an epoch transition is registered with the
	// node and cleared once the merge applies it (observed at a batch
	// boundary, where the transition is checkpointed immediately).
	resubArmed atomic.Bool
	epoch      uint64 // merge-goroutine view of the subscription epoch

	// Checkpoint writer pipeline: the delivery goroutine captures
	// (vector, cursor, dedup, snapshot) at a batch boundary and parks it
	// in ckptPending; the writer goroutine serializes and persists it.
	// At most one capture is pending — a newer capture supersedes an
	// unwritten older one (their waiters carry over), so a slow disk
	// coalesces checkpoints instead of queueing them.
	ckptMu      sync.Mutex
	ckptPending *ckptCapture
	ckptKick    chan struct{} // signals the writer (buffered, 1)
	ckptDone    chan struct{} // closed when the writer exits
	ckptRetry   atomic.Bool   // a Save failed; retry at the next batch boundary
	ckptStallNs atomic.Int64  // max time checkpointing blocked delivery
	coalesced   atomic.Uint64 // captures superseded before being written

	// Merge-goroutine-owned execution state.
	dedup     map[transport.ProcessID]*clientWindow // duplicate suppression
	executed  uint64
	sinceCkpt int
	respBuf   []transport.Message // the batch's pending responses, reused

	executedTotal atomic.Uint64
	checkpoints   atomic.Uint64

	done     chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once
}

// BuildNodeResult carries what BuildNode recovered.
type BuildNodeResult struct {
	// Node is ready to Join/Subscribe with recovery applied.
	Node *core.Node
	// Checkpoint is the state snapshot to restore (nil state if none).
	Checkpoint recovery.Checkpoint
	// Remote reports whether the checkpoint came from a peer.
	Remote bool
}

// RecoveryOptions parameterizes BuildNode.
type RecoveryOptions struct {
	// Self, Router, Coord, NewLog, M, Ring: as core.Config.
	Core core.Config
	// Store is the local checkpoint store.
	Store recovery.Store
	// Peers are partition peers to query for newer checkpoints.
	Peers []transport.ProcessID
	// Service is the process's service channel (consumed during
	// recovery only; hand it to the Replica afterwards).
	Service <-chan transport.Message
	// Timeout bounds waiting for peer checkpoint responses.
	Timeout time.Duration
}

// BuildNode performs replica recovery per Section 5.2 and returns a
// configured (but not yet joined/subscribed) core.Node:
//
//  1. Load the latest local checkpoint.
//  2. Ask partition peers for their checkpoint tuples and wait for a
//     recovery quorum Q_R (majority of the partition, counting self).
//  3. Select the most up-to-date checkpoint (Predicate 3); if remote,
//     fetch its snapshot.
//  4. Configure the node's StartVector/StartCursor from it.
//
// On a fresh partition (no checkpoints anywhere) it returns a clean node.
func BuildNode(opts RecoveryOptions) (BuildNodeResult, error) {
	if opts.Timeout == 0 {
		opts.Timeout = 2 * time.Second
	}
	var local recovery.Checkpoint
	if opts.Store != nil {
		if cp, ok := opts.Store.Latest(); ok {
			local = cp
		}
	}
	localEpoch := uint64(0)
	if cur, err := decodeStateCursor(local.State); err == nil {
		localEpoch = cur.Epoch
	}
	best := local
	bestEpoch := localEpoch
	bestPeer := transport.ProcessID(0)
	remote := false

	tr := opts.Core.Router.Transport()
	if len(opts.Peers) > 0 && opts.Service != nil {
		quorum := (len(opts.Peers)+1)/2 + 1 // majority incl. self
		reqSeq := uint64(time.Now().UnixNano())
		for _, p := range opts.Peers {
			_ = tr.Send(p, transport.Message{Kind: transport.KindCheckpointReq, Seq: reqSeq})
		}
		got := 1 // self
		deadline := time.After(opts.Timeout)
	collect:
		for got < quorum {
			select {
			case m, ok := <-opts.Service:
				if !ok {
					break collect
				}
				if m.Kind != transport.KindCheckpointResp || m.Seq != reqSeq {
					continue // stale traffic during recovery
				}
				vec, rest, err := recovery.DecodeVector(m.Payload)
				if err != nil {
					continue
				}
				// Subscription epoch rides after the vector (absent
				// in pre-reconfig responses → epoch 0). A higher
				// epoch wins outright: vectors across an epoch
				// boundary are not comparable entrywise (the group
				// set changed), but the transition itself was
				// checkpointed, so the higher-epoch tuple is by
				// construction the later one.
				var epoch uint64
				if len(rest) >= 8 {
					epoch = binary.LittleEndian.Uint64(rest[:8])
				}
				got++
				if epoch > bestEpoch || (epoch == bestEpoch && recovery.Compare(vec, best.Vector) > 0) {
					best = recovery.Checkpoint{Vector: vec}
					bestEpoch = epoch
					bestPeer = m.From
				}
			case <-deadline:
				break collect
			}
		}
		// Fetch the remote snapshot if a peer is ahead of us. The peer
		// streams it as KindSnapshotChunk frames (a monolithic response
		// could not carry a state larger than one transport frame);
		// reassemble and verify before adopting it. On ANY failure —
		// timeout, inconsistent framing, CRC mismatch, undecodable
		// checkpoint — fall back to the LOCAL checkpoint: a vector
		// without its state must never survive here, because restarting
		// with a safeVec we do not actually hold would let the trim
		// protocol (Predicate 2) discard instances we still need.
		if bestPeer != 0 {
			_ = tr.Send(bestPeer, transport.Message{Kind: transport.KindSnapshotReq, Seq: reqSeq})
			deadline := time.After(opts.Timeout)
			var asm *ChunkAssembly
			best = local
		fetch:
			for {
				select {
				case m, ok := <-opts.Service:
					if !ok {
						break fetch
					}
					if m.Kind != transport.KindSnapshotChunk || m.Seq != reqSeq {
						continue
					}
					if asm == nil {
						if asm = NewChunkAssembly(m); asm == nil {
							break fetch
						}
					}
					done, err := asm.Add(m)
					if err != nil {
						break fetch
					}
					if !done {
						continue
					}
					cp, err := recovery.DecodeCheckpoint(asm.buf)
					if err != nil {
						break fetch
					}
					best = cp
					remote = true
					break fetch
				case <-deadline:
					// The acceptors still have the gap between the
					// local checkpoint and the tip (Predicate 5).
					break fetch
				}
			}
		}
	}

	cfg := opts.Core
	if len(best.Vector) > 0 {
		cfg.StartVector = best.Vector
		if cur, err := decodeStateCursor(best.State); err == nil {
			cfg.StartCursor = cur
		}
	}
	node, err := core.New(cfg)
	if err != nil {
		return BuildNodeResult{}, err
	}
	return BuildNodeResult{Node: node, Checkpoint: best, Remote: remote}, nil
}

// Checkpoint state layout: cursorLen(4) || cursor || dedupLen(4) || dedup ||
// snapshot. The cursor rides inside the checkpoint so recovery resumes the
// deterministic merge at the exact position; dedup state rides along so
// duplicate suppression survives restarts.
//
//lint:deterministic
func encodeStateParts(cur core.Cursor, dedup []byte, snap []byte) []byte {
	cb := cur.Encode()
	buf := make([]byte, 0, 8+len(cb)+len(dedup)+len(snap))
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(cb)))
	buf = append(buf, tmp[:]...)
	buf = append(buf, cb...)
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(dedup)))
	buf = append(buf, tmp[:]...)
	buf = append(buf, dedup...)
	return append(buf, snap...)
}

func decodeStateParts(state []byte) (core.Cursor, []byte, []byte, error) {
	if len(state) < 4 {
		return core.Cursor{}, nil, nil, recovery.ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(state[:4]))
	state = state[4:]
	if len(state) < n+4 {
		return core.Cursor{}, nil, nil, recovery.ErrCorrupt
	}
	cur, err := core.DecodeCursor(state[:n])
	if err != nil {
		return core.Cursor{}, nil, nil, err
	}
	state = state[n:]
	dn := int(binary.LittleEndian.Uint32(state[:4]))
	state = state[4:]
	if len(state) < dn {
		return core.Cursor{}, nil, nil, recovery.ErrCorrupt
	}
	return cur, state[:dn], state[dn:], nil
}

func decodeStateCursor(state []byte) (core.Cursor, error) {
	cur, _, _, err := decodeStateParts(state)
	return cur, err
}

// clientWindow tracks which of one client's command sequence numbers were
// already executed. Commands from a single client can arrive out of order
// across groups (different rings interleave), so a plain high-water mark is
// not enough: floor covers the contiguous executed prefix, and executed
// seqs above it sit in a fixed ring of slots indexed by seq — array reads
// on the execution hot path where a map would pay a hash and probe per
// command. Seqs evicted by a slot collision while still above the floor
// (pathologically sparse clients) spill into an overflow map so duplicate
// detection never silently forgets an executed command.
type clientWindow struct {
	floor    uint64
	seqs     []uint64 // seq held by each slot (0 = empty), indexed seq & mask
	resp     [][]byte // cached response per slot, for duplicate re-replies
	overflow map[uint64][]byte
}

// Ring sizing (powers of two): windows double on slot collision up to
// windowSlotsMax, beyond which collisions spill to the overflow map. The
// floor also bounds cached-response retention — a floor-covered slot is
// overwritten (without growing) once a newer congruent seq lands — so the
// minimum is sized to keep re-replies for lost acks answering with the
// real response for at least the last windowSlotsMin commands per client.
const (
	windowSlotsMin = 512
	windowSlotsMax = 8192
)

func newClientWindow(floor uint64) *clientWindow {
	return &clientWindow{
		floor: floor,
		seqs:  make([]uint64, windowSlotsMin),
		resp:  make([][]byte, windowSlotsMin),
	}
}

// grow doubles the ring. Seqs present are distinct modulo the old size, so
// they stay collision-free modulo the doubled size.
func (w *clientWindow) grow() {
	n := uint64(len(w.seqs)) * 2
	seqs := make([]uint64, n)
	resp := make([][]byte, n)
	for j, s := range w.seqs {
		if s != 0 {
			seqs[s&(n-1)] = s
			resp[s&(n-1)] = w.resp[j]
		}
	}
	w.seqs, w.resp = seqs, resp
}

// check reports whether seq was executed; if it was, the cached response
// (possibly nil if evicted) is returned.
func (w *clientWindow) check(seq uint64) (dup bool, resp []byte) {
	i := seq & uint64(len(w.seqs)-1)
	if w.seqs[i] == seq {
		return true, w.resp[i]
	}
	if seq <= w.floor {
		return true, w.overflow[seq]
	}
	if len(w.overflow) > 0 {
		if r, ok := w.overflow[seq]; ok {
			return true, r
		}
	}
	return false, nil
}

// record marks seq executed with its response and advances the floor over
// any now-contiguous prefix.
func (w *clientWindow) record(seq uint64, resp []byte) {
	i := seq & uint64(len(w.seqs)-1)
	for w.seqs[i] != 0 && w.seqs[i] > w.floor && w.seqs[i] != seq {
		if len(w.seqs) < windowSlotsMax {
			w.grow()
			i = seq & uint64(len(w.seqs)-1)
			continue
		}
		// Ring at capacity: spill the collision victim so the
		// duplicate check still finds it.
		if w.overflow == nil {
			w.overflow = make(map[uint64][]byte)
		}
		w.overflow[w.seqs[i]] = w.resp[i]
		break
	}
	w.seqs[i], w.resp[i] = seq, resp
	mask := uint64(len(w.seqs) - 1)
	for {
		next := (w.floor + 1) & mask
		if w.seqs[next] == w.floor+1 {
			w.floor++
			continue
		}
		if len(w.overflow) > 0 {
			if _, ok := w.overflow[w.floor+1]; ok {
				delete(w.overflow, w.floor+1)
				w.floor++
				continue
			}
		}
		break
	}
	if len(w.overflow) > 1024 {
		// Rare: shed a pathological overflow's floor-covered entries.
		for s := range w.overflow {
			if s <= w.floor {
				delete(w.overflow, s)
			}
		}
	}
}

// executedAbove returns the executed seqs above the floor, ascending.
func (w *clientWindow) executedAbove() []uint64 {
	var out []uint64
	for _, s := range w.seqs {
		if s > w.floor {
			out = append(out, s)
		}
	}
	for s := range w.overflow {
		if s > w.floor {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return out
}

// encodeDedup serializes the duplicate-suppression table: per client, in
// ascending client-id order, the floor and the executed seqs above it in
// ascending order, so identical dedup states encode to identical
// (checksummable) bytes regardless of map iteration order. Layout:
// count(4) || { client(4) floor(8) nabove(4) seq(8)*nabove }*count.
// Cached responses are not persisted: a restored replica answers a
// duplicate with an empty payload.
//
//lint:deterministic
func encodeDedup(dedup map[transport.ProcessID]*clientWindow) []byte {
	ids := make([]transport.ProcessID, 0, len(dedup))
	for c := range dedup {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := make([]byte, 4, 4+16*len(ids))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(ids)))
	for _, c := range ids {
		w := dedup[c]
		above := w.executedAbove()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
		buf = binary.LittleEndian.AppendUint64(buf, w.floor)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(above)))
		for _, s := range above {
			buf = binary.LittleEndian.AppendUint64(buf, s)
		}
	}
	return buf
}

// decodeDedup parses encodeDedup output. Truncated, oversized or
// out-of-order input returns ErrCorrupt instead of a silently partial
// table — a damaged dedup table restored into a replica would re-execute
// commands it already executed.
func decodeDedup(buf []byte) (map[transport.ProcessID]*clientWindow, error) {
	if len(buf) < 4 {
		return nil, recovery.ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	if n > len(buf)/16 {
		return nil, recovery.ErrCorrupt
	}
	out := make(map[transport.ProcessID]*clientWindow, n)
	for i := 0; i < n; i++ {
		if len(buf) < 16 {
			return nil, recovery.ErrCorrupt
		}
		c := transport.ProcessID(binary.LittleEndian.Uint32(buf[:4]))
		floor := binary.LittleEndian.Uint64(buf[4:12])
		m := int(binary.LittleEndian.Uint32(buf[12:16]))
		buf = buf[16:]
		if _, dup := out[c]; dup || m > len(buf)/8 {
			return nil, recovery.ErrCorrupt
		}
		w := newClientWindow(floor)
		prev := floor
		for k := 0; k < m; k++ {
			s := binary.LittleEndian.Uint64(buf[8*k:])
			if s <= prev {
				return nil, recovery.ErrCorrupt
			}
			w.record(s, nil)
			prev = s
		}
		// The encoder's floor covers the whole contiguous prefix, so a
		// listed seq can never extend it.
		if w.floor != floor {
			return nil, recovery.ErrCorrupt
		}
		buf = buf[8*m:]
		out[c] = w
	}
	if len(buf) != 0 {
		return nil, recovery.ErrCorrupt
	}
	return out, nil
}

// NewReplica starts a replica: it restores the recovered checkpoint into
// the state machine, joins and subscribes the node, and begins executing.
func NewReplica(cfg ReplicaConfig, recovered recovery.Checkpoint) (*Replica, error) {
	if cfg.Node == nil || cfg.SM == nil {
		return nil, errors.New("smr: Node and SM are required")
	}
	r := &Replica{
		cfg:      cfg,
		tr:       cfg.Transport,
		dedup:    make(map[transport.ProcessID]*clientWindow),
		safeVec:  make(recovery.Vector),
		ckptKick: make(chan struct{}, 1),
		ckptDone: make(chan struct{}),
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
		readWait: metrics.NewHistogram(),
	}
	r.snapSM, _ = cfg.SM.(SnapshotCapturer)
	groups := cfg.Groups
	if len(recovered.State) > 0 {
		cur, dedup, snap, err := decodeStateParts(recovered.State)
		if err != nil {
			return nil, fmt.Errorf("smr: corrupt recovered checkpoint: %w", err)
		}
		if err := cfg.SM.Restore(snap); err != nil {
			return nil, fmt.Errorf("smr: restore snapshot: %w", err)
		}
		if r.dedup, err = decodeDedup(dedup); err != nil {
			return nil, fmt.Errorf("smr: corrupt recovered dedup table: %w", err)
		}
		r.safeVec = recovered.Vector.Clone()
		r.safeEpoch = cur.Epoch
		r.epoch = cur.Epoch
		// The checkpointed cursor records the subscription in force when
		// it was taken — including epoch transitions applied since the
		// replica was configured. Restoring it (rather than cfg.Groups)
		// is what lets a killed replica come back with its post-split
		// group set.
		if len(cur.Groups) > 0 {
			groups = append([]transport.RingID(nil), cur.Groups...)
		}
		// Re-persist locally so our own store has what we installed.
		if cfg.Checkpoints != nil {
			if err := cfg.Checkpoints.Save(recovered); err != nil {
				return nil, fmt.Errorf("smr: persist recovered checkpoint: %w", err)
			}
		}
	} else if len(recovered.Vector) > 0 {
		r.safeVec = recovered.Vector.Clone()
	}
	r.cfg.Groups = groups
	for _, g := range groups {
		if err := cfg.Node.Join(g); err != nil {
			return nil, fmt.Errorf("smr: join group %d: %w", g, err)
		}
	}
	// Keep the checkpoint cadence: one delivery batch must not span more
	// than one checkpoint interval.
	if cfg.CheckpointEvery > 0 {
		cfg.Node.LimitBatch(cfg.CheckpointEvery)
	}
	cfg.Node.SetBatchBoundary(r.noteBoundary)
	if err := cfg.Node.SubscribeBatch(r.deliverBatch, groups...); err != nil {
		return nil, fmt.Errorf("smr: subscribe: %w", err)
	}
	// Seed the applied vector with the subscription's start positions so
	// read-index coverage checks know which groups this replica serves
	// even before the first batch boundary (noteBoundary merges maxima,
	// so a boundary that already fired is never regressed).
	seed := cfg.Node.DeliveredVector()
	r.readMu.Lock()
	if r.appliedVec == nil {
		r.appliedVec = seed
	} else {
		for g, k := range seed {
			if k > r.appliedVec[g] {
				r.appliedVec[g] = k
			} else if _, ok := r.appliedVec[g]; !ok {
				r.appliedVec[g] = k
			}
		}
	}
	r.readMu.Unlock()
	go r.checkpointWriter()
	go r.serviceLoop()
	return r, nil
}

// deliverBatch executes one batch of delivered commands in delivery
// order; it runs on the merge goroutine, so state machine access is
// single-threaded and the whole pass — duplicate suppression, execution
// and checkpoint accounting — touches only merge-owned state, lock-free.
// Each new command is recorded in its client's window as soon as it
// executes, so a command delivered twice in one batch is suppressed by the
// ordinary window check. Client responses are flushed together after the
// batch.
//
// Ownership: d.Data may alias pooled buffers the core releases when this
// handler returns, so everything here — decode, execute, reply flush —
// happens synchronously inside the call, and nothing (state machine
// input, dedup-window responses, respBuf payloads) retains a slice of
// d.Data past it. A state machine that wants to keep command bytes must
// copy them.
//
//lint:deterministic
func (r *Replica) deliverBatch(ds []core.Delivery) {
	// Local reads and ForceCheckpoint are shut out for the duration, so
	// they only ever see the state at a batch boundary.
	r.applyGate.Lock()
	r.respBuf = r.respBuf[:0]
	executed := 0

	for _, d := range ds {
		cmd, err := DecodeCommand(d.Data)
		if err != nil {
			continue // not a command (foreign traffic on a shared group)
		}
		w := r.dedup[cmd.Client]
		if w == nil {
			w = newClientWindow(0)
			r.dedup[cmd.Client] = w
		}
		if dup, resp := w.check(cmd.Seq); dup {
			r.appendResp(cmd, d.Group, resp)
			continue
		}
		traced := r.cfg.Tracer != nil && d.Trace.Sampled()
		if traced {
			r.cfg.Tracer.Add(d.Trace, "apply", uint32(d.Group), d.Instance, d.ValueID, time.Now(), 0) //lint:allow determinism trace telemetry only: the span timestamp feeds the trace recorder, never replicated state
		}
		resp := r.cfg.SM.Execute(d.Group, cmd.Op)
		w.record(cmd.Seq, resp)
		executed++
		if idx := r.appendResp(cmd, d.Group, resp); traced && idx >= 0 {
			// Ride the context back on the reply frame so the trace
			// spans the full round trip on the wire as well.
			r.respBuf[idx].Traces = []transport.TraceRef{{ValueID: d.ValueID, Ctx: d.Trace}}
		}
	}
	r.executed += uint64(executed)
	r.sinceCkpt += executed
	takeCkpt := r.cfg.CheckpointEvery > 0 && r.sinceCkpt >= r.cfg.CheckpointEvery
	if takeCkpt {
		// Carry the overshoot: a checkpoint is taken at the first
		// batch boundary after each interval. One oversized batch
		// (a packed instance can exceed LimitBatch) yields a single
		// checkpoint — taking several at the same boundary would
		// snapshot identical state.
		r.sinceCkpt %= r.cfg.CheckpointEvery
	} else if r.cfg.CheckpointEvery > 0 && r.ckptRetry.Load() {
		// A previous durable write failed: retry at this batch boundary
		// instead of silently waiting out another full interval while
		// trim stays pinned at the stale safeVec.
		takeCkpt = true
	}
	if r.resubArmed.Load() {
		// An epoch transition is registered with the node; the merge cut
		// the marker batch right here if it fired. Checkpoint the
		// transition immediately so recovery — local or via a peer's
		// higher-epoch tuple — restores the new subscription instead of
		// replaying the marker unarmed.
		if cur := r.cfg.Node.MergeCursor(); cur.Epoch > r.epoch {
			r.epoch = cur.Epoch
			r.resubArmed.Store(false)
			takeCkpt = r.cfg.Checkpoints != nil
		}
	}

	if executed > 0 {
		r.executedTotal.Add(uint64(executed))
	}
	// Checkpoint at the batch boundary: DeliveredVector/MergeCursor
	// describe exactly the state after this batch (Section 5.2).
	if takeCkpt {
		r.checkpoint(nil)
	}
	r.applyGate.Unlock()
	// Flush the batch's client responses. Ring carries the delivery
	// group, Count the partition tag, so clients can both match
	// single-group commands and count distinct partitions on
	// multi-partition ones. Instance carries the post-batch delivered
	// high-water mark of the response's group: the client folds it into
	// its observed vector, which is exactly the requirement a read-index
	// local read later presents (read-your-writes).
	var vec recovery.Vector
	if len(r.respBuf) > 0 {
		vec = r.cfg.Node.DeliveredVector()
	}
	for i := range r.respBuf {
		r.respBuf[i].Instance = vec[r.respBuf[i].Ring]
		_ = r.tr.Send(r.respBuf[i].To, r.respBuf[i])
		r.respBuf[i] = transport.Message{} // release payload references
	}
}

// appendResp queues a client response for the batch flush and returns its
// index in respBuf (-1 when the replica has no transport). The destination
// rides in Message.To until Send stamps it.
func (r *Replica) appendResp(cmd Command, group transport.RingID, payload []byte) int {
	if r.tr == nil {
		return -1
	}
	r.respBuf = append(r.respBuf, transport.Message{
		Kind:    transport.KindResponse,
		To:      cmd.Client,
		Ring:    group,
		Count:   uint32(r.cfg.Partition),
		Seq:     cmd.Seq,
		Payload: payload,
	})
	return len(r.respBuf) - 1
}

// ckptCapture is everything the checkpoint writer needs, captured
// consistently at a batch boundary on the merge goroutine. Exactly one of
// snap/state is set: snap when the state machine supports cheap capture
// (serialization then runs on the writer), state when the full snapshot
// had to be serialized at capture time.
type ckptCapture struct {
	vector  recovery.Vector
	cursor  core.Cursor
	dedup   []byte
	snap    StateSnapshot
	state   []byte
	waiters []chan bool // signalled (buffered) once durably written or dropped
}

// checkpoint captures the state machine with its identifying tuple and
// merge cursor and hands the capture to the background writer. Runs on the
// merge goroutine at a batch boundary (inside deliverBatch), so vector,
// cursor and snapshot are mutually consistent (Section 5.2). With a
// SnapshotCapturer state machine the blocking part is an O(1) root capture
// plus the (small) dedup encoding — microseconds, independent of state
// size; serialization, CRC and the durable write all happen off the
// delivery path. safeVec advances only on the writer's durability ack, so
// trim never outruns a checkpoint that is actually on disk.
func (r *Replica) checkpoint(waiter chan bool) {
	if r.cfg.Checkpoints == nil {
		if waiter != nil {
			waiter <- false
		}
		return
	}
	start := time.Now() //lint:allow determinism checkpoint-stall telemetry only: the duration feeds a local gauge, never replicated state or checkpoint bytes
	r.ckptRetry.Store(false)
	c := &ckptCapture{
		vector: r.cfg.Node.DeliveredVector(),
		cursor: r.cfg.Node.MergeCursor(),
		dedup:  encodeDedup(r.dedup), // merge-goroutine-owned state
	}
	if waiter != nil {
		c.waiters = append(c.waiters, waiter)
	}
	if r.snapSM != nil {
		c.snap = r.snapSM.CaptureSnapshot()
	} else {
		c.state = r.cfg.SM.Snapshot()
	}
	if r.cfg.SyncCheckpoints {
		r.writeCheckpoint(c) // legacy blocking path, for comparison only
	} else {
		r.enqueueCheckpoint(c)
	}
	r.noteStall(time.Since(start)) //lint:allow determinism checkpoint-stall telemetry only: the duration feeds a local gauge, never replicated state or checkpoint bytes
}

// enqueueCheckpoint parks a capture for the writer, coalescing: if an
// older capture is still waiting, the newer one supersedes it (at most one
// pending), carrying the old capture's waiters since they will be acked by
// an at-least-as-new durable checkpoint.
func (r *Replica) enqueueCheckpoint(c *ckptCapture) {
	r.ckptMu.Lock()
	if prev := r.ckptPending; prev != nil {
		c.waiters = append(c.waiters, prev.waiters...)
		if prev.snap != nil {
			releaseSnapshot(prev.snap)
		}
		r.coalesced.Add(1)
	}
	r.ckptPending = c
	r.ckptMu.Unlock()
	select {
	case r.ckptKick <- struct{}{}:
	default:
	}
}

// writeCheckpoint serializes and durably persists one capture, advancing
// safeVec on success. On failure it arms the retry flag so the next batch
// boundary re-captures instead of waiting out a full interval.
func (r *Replica) writeCheckpoint(c *ckptCapture) {
	ok := false
	defer func() {
		for _, w := range c.waiters {
			w <- ok
		}
	}()
	snap := c.state
	if c.snap != nil {
		snap = c.snap.Serialize()
		releaseSnapshot(c.snap)
	}
	state := encodeStateParts(c.cursor, c.dedup, snap)
	if err := r.cfg.Checkpoints.Save(recovery.Checkpoint{Vector: c.vector, State: state}); err != nil {
		r.ckptRetry.Store(true)
		return // keep serving; trim just cannot advance yet
	}
	r.mu.Lock()
	if c.cursor.Epoch > r.safeEpoch ||
		(c.cursor.Epoch == r.safeEpoch && recovery.Compare(c.vector, r.safeVec) > 0) {
		r.safeVec = c.vector.Clone()
		r.safeEpoch = c.cursor.Epoch
	}
	r.mu.Unlock()
	r.checkpoints.Add(1)
}

// checkpointWriter is the dedicated background goroutine that turns
// captures into durable checkpoints, one at a time.
func (r *Replica) checkpointWriter() {
	defer close(r.ckptDone)
	defer func() {
		// Fail any capture still parked at shutdown so waiters unblock
		// and pinned resources release.
		r.ckptMu.Lock()
		c := r.ckptPending
		r.ckptPending = nil
		r.ckptMu.Unlock()
		if c != nil {
			if c.snap != nil {
				releaseSnapshot(c.snap)
			}
			for _, w := range c.waiters {
				w <- false
			}
		}
	}()
	for {
		select {
		case <-r.done:
			return
		case <-r.ckptKick:
			for {
				r.ckptMu.Lock()
				c := r.ckptPending
				r.ckptPending = nil
				r.ckptMu.Unlock()
				if c == nil {
					break
				}
				r.writeCheckpoint(c)
			}
		}
	}
}

// noteStall records the time a checkpoint blocked the delivery goroutine
// (capture only on the async path; capture+serialize+write when
// SyncCheckpoints).
func (r *Replica) noteStall(d time.Duration) {
	for {
		cur := r.ckptStallNs.Load()
		if int64(d) <= cur || r.ckptStallNs.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// CheckpointStallMax reports the longest delivery stall a checkpoint has
// caused since start (instrumentation for cmd/bench -ckpt).
func (r *Replica) CheckpointStallMax() time.Duration {
	return time.Duration(r.ckptStallNs.Load())
}

// CheckpointsCoalesced reports captures superseded before being written
// (instrumentation).
func (r *Replica) CheckpointsCoalesced() uint64 { return r.coalesced.Load() }

// ForceCheckpoint takes a checkpoint outside the delivery path and waits
// for it to be durable; used by services that checkpoint on a timer while
// idle. It is only safe when no command is concurrently executing (the
// caller pauses traffic), so it is primarily for tests and controlled
// experiments.
func (r *Replica) ForceCheckpoint() {
	if r.cfg.Checkpoints == nil {
		return
	}
	if r.cfg.SyncCheckpoints {
		r.checkpoint(nil)
		return
	}
	w := make(chan bool, 1)
	// The apply gate's read side keeps the capture off a mid-batch
	// state: delivery holds the write side across each batch, so the
	// capture waits for a batch boundary (and dedup state is stable).
	r.applyGate.RLock()
	r.checkpoint(w)
	r.applyGate.RUnlock()
	select {
	case <-w:
	case <-r.done:
	}
}

// serviceLoop answers trim and recovery RPCs.
func (r *Replica) serviceLoop() {
	defer close(r.loopDone)
	for {
		select {
		case <-r.done:
			return
		case m, ok := <-r.cfg.Service:
			if !ok {
				return
			}
			r.handleService(m)
		}
	}
}

func (r *Replica) handleService(m transport.Message) {
	switch m.Kind {
	case transport.KindSafeReq:
		// Trim protocol: report k[x]p, the group's instance in our
		// last durable checkpoint (Section 5.2, Predicate 2).
		r.mu.Lock()
		k := r.safeVec[m.Ring]
		r.mu.Unlock()
		if r.tr != nil {
			_ = r.tr.Send(m.From, transport.Message{
				Kind:     transport.KindSafeResp,
				Ring:     m.Ring,
				Instance: k,
			})
		}
	case transport.KindCheckpointReq:
		r.mu.Lock()
		vec := r.safeVec.Clone()
		epoch := r.safeEpoch
		r.mu.Unlock()
		if r.tr != nil {
			// The subscription epoch rides after the vector so the
			// recovering peer can rank tuples across reconfigurations.
			payload := recovery.EncodeVector(vec)
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], epoch)
			_ = r.tr.Send(m.From, transport.Message{
				Kind:    transport.KindCheckpointResp,
				Seq:     m.Seq,
				Payload: append(payload, tmp[:]...),
			})
		}
	case transport.KindSnapshotReq:
		if r.cfg.Checkpoints == nil || r.tr == nil {
			return
		}
		cp, ok := r.cfg.Checkpoints.Latest()
		if !ok {
			return
		}
		// Stream the checkpoint in bounded chunks; a monolithic frame
		// cannot carry states past the transport frame cap.
		sendSnapshotChunks(r.tr, m.From, m.Seq, cp.Encode())
	case transport.KindLocalRead:
		// Local reads run on their own goroutine: a read-index wait can
		// park until delivery covers the requirement, and the service
		// loop must keep answering trim and recovery RPCs meanwhile.
		go r.serveLocalRead(m)
	case transport.KindReconfigPrepare:
		// Reconfiguration handshake: arm the epoch transition before the
		// controller multicasts the marker, and ack so the controller
		// knows every learner will cut at the same point. Count 1 is the
		// abort path: disarm a prepared transition whose marker will
		// never be multicast.
		if m.Count == 1 {
			if r.cfg.Node.CancelResubscribe(m.Instance) {
				r.resubArmed.Store(false)
			}
			return
		}
		groups, err := DecodeRingIDs(m.Payload)
		if err == nil {
			err = r.Resubscribe(m.Instance, groups...)
		}
		if r.tr != nil {
			ack := transport.Message{Kind: transport.KindReconfigAck, Seq: m.Seq}
			if err != nil {
				ack.Instance = 1
				ack.Payload = []byte(err.Error())
			}
			_ = r.tr.Send(m.From, ack)
		}
	default:
		if r.cfg.ServiceHook != nil {
			r.cfg.ServiceHook(m)
		}
	}
}

// Resubscribe arms an epoch transition: the replica joins any groups it
// has not joined yet and registers the marker with the node; when the
// merge delivers the marker value the subscription switches to groups and
// the transition is checkpointed at that exact batch boundary. Safe to
// call from the service goroutine (the reconfig prepare RPC) or from
// application code.
func (r *Replica) Resubscribe(marker uint64, groups ...transport.RingID) error {
	if len(groups) == 0 {
		return errors.New("smr: empty resubscription")
	}
	for _, g := range groups {
		if err := r.cfg.Node.Join(g); err != nil {
			return fmt.Errorf("smr: join group %d: %w", g, err)
		}
	}
	if err := r.cfg.Node.PrepareResubscribe(marker, groups...); err != nil {
		return err
	}
	r.resubArmed.Store(true)
	return nil
}

// Halted reports whether this replica's delivery has stopped prematurely
// — one of its subscribed rings terminated its delivery stream (e.g. the
// learner fell so far behind that its catch-up range was trimmed from
// every acceptor) and the deterministic merge exited. The replica keeps
// answering service RPCs but executes nothing further; recover it via a
// restart (BuildNode performs the Section 5.2 checkpoint transfer).
func (r *Replica) Halted() (transport.RingID, bool) {
	return r.cfg.Node.MergeHalted()
}

// Epoch reports the subscription epoch of the last durable checkpoint.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.safeEpoch
}

// Subscription reports the node's current subscribed groups (ascending).
func (r *Replica) Subscription() []transport.RingID {
	return r.cfg.Node.Subscription()
}

// CoreNode exposes the replica's consensus node (diagnostics: ring
// stats, merge stalls, WAL health).
func (r *Replica) CoreNode() *core.Node { return r.cfg.Node }

// ResubscribeStallMax reports the longest an epoch transition blocked the
// node's merge goroutine (instrumentation for cmd/bench -reconfig).
func (r *Replica) ResubscribeStallMax() time.Duration {
	return r.cfg.Node.ResubscribeStallMax()
}

// EncodeRingIDs serializes a group list for reconfiguration RPC payloads.
//
//lint:deterministic
func EncodeRingIDs(ids []transport.RingID) []byte {
	buf := make([]byte, 4, 4+4*len(ids))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(ids)))
	var tmp [4]byte
	for _, g := range ids {
		binary.LittleEndian.PutUint32(tmp[:], uint32(g))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// DecodeRingIDs parses EncodeRingIDs output.
func DecodeRingIDs(buf []byte) ([]transport.RingID, error) {
	if len(buf) < 4 {
		return nil, recovery.ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	if len(buf) != 4*n {
		return nil, recovery.ErrCorrupt
	}
	out := make([]transport.RingID, n)
	for i := range out {
		out[i] = transport.RingID(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out, nil
}

// SeedCheckpoint builds the checkpoint a freshly split-off partition
// replica boots from: the transferred state snapshot under the new
// subscription at the given epoch, delivery starting at each group's
// first instance, with an empty duplicate-suppression table.
func SeedCheckpoint(groups []transport.RingID, epoch uint64, snap []byte) recovery.Checkpoint {
	sorted := append([]transport.RingID(nil), groups...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	vec := make(recovery.Vector, len(sorted))
	for _, g := range sorted {
		vec[g] = 0
	}
	cur := core.Cursor{Groups: sorted, Credits: make([]uint64, len(sorted)), Epoch: epoch}
	return recovery.Checkpoint{Vector: vec, State: encodeStateParts(cur, encodeDedup(nil), snap)}
}

// ExecutedCount reports commands executed (excluding duplicates).
func (r *Replica) ExecutedCount() uint64 { return r.executedTotal.Load() }

// CheckpointCount reports checkpoints taken since start.
func (r *Replica) CheckpointCount() uint64 { return r.checkpoints.Load() }

// SafeVector returns the tuple of the last durable checkpoint.
func (r *Replica) SafeVector() recovery.Vector {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.safeVec.Clone()
}

// Stop halts the replica, its checkpoint writer and its node. The node
// stops first — Node.Stop joins the merge goroutine — so no capture can
// be enqueued after the checkpoint writer drains and every capture is
// written or released exactly once.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		r.cfg.Node.Stop()
		close(r.done)
		<-r.loopDone
		<-r.ckptDone
	})
}
