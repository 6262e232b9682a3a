package smr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"amcast/internal/metrics"
	"amcast/internal/recovery"
	"amcast/internal/transport"
)

// Local reads let a client read one replica directly, skipping the
// multicast round, in two modes:
//
//   - Read-index: the request carries the client's observed applied
//     vector (built from the Instance stamps on every reply the client
//     has seen). The replica waits until its own applied vector covers
//     the requirement before serving — the read observes every write the
//     client has observed, so the client's session stays causally
//     consistent (read-your-writes, monotonic reads) without ordering
//     the read through consensus.
//   - Bounded staleness: the request carries a staleness bound. The
//     replica serves immediately if its deterministic merge flushed a
//     batch boundary within the bound; otherwise it refuses with an
//     explicit stale error instead of silently returning old data. With
//     rate leveling active, skip batches act as the liveness heartbeat.
type LocalReadMode uint8

// Local-read modes.
const (
	// ReadIndex waits until the serving replica's applied state covers
	// the client's observed vector.
	ReadIndex LocalReadMode = iota + 1
	// BoundedStale serves immediately if the replica proved merge
	// progress within the client's bound, else fails with ErrStale.
	BoundedStale
)

// Local-read response status codes (first payload byte of a
// KindLocalReadResp message).
const (
	// LocalReadOK: the rest of the payload is the operation's result.
	LocalReadOK byte = iota
	// LocalReadStale: a bounded-staleness read found the replica beyond
	// its staleness bound.
	LocalReadStale
	// LocalReadUnsupported: the state machine does not serve local
	// reads, or the operation is not read-only.
	LocalReadUnsupported
	// LocalReadTimeout: a read-index wait did not get covered in time.
	LocalReadTimeout
	// LocalReadBadRequest: the request payload did not decode.
	LocalReadBadRequest
)

// Local-read errors surfaced to clients.
var (
	// ErrStale reports a bounded-staleness read refused because the
	// replica could not prove freshness within the requested bound.
	ErrStale = errors.New("smr: local read: replica staleness bound exceeded")
	// ErrLocalReadUnsupported reports a local read the serving state
	// machine cannot execute (not read-only, or no LocalReader support).
	ErrLocalReadUnsupported = errors.New("smr: local read: operation not supported")
)

// localReadWaitMax bounds how long a replica parks a read-index read
// waiting for its applied vector to cover the client's requirement.
const localReadWaitMax = 10 * time.Second

// LocalReader is the optional state-machine extension serving local
// reads. ReadLocal executes op against current state if it is read-only,
// returning ok=false otherwise. It is called with the replica's apply
// gate held in read mode: concurrently with other local reads, never
// concurrently with command application.
type LocalReader interface {
	ReadLocal(group transport.RingID, op []byte) (resp []byte, ok bool)
}

// encodeLocalRead builds a KindLocalRead payload: mode byte, then for
// ReadIndex the self-delimiting encoded requirement vector, for
// BoundedStale the bound in big-endian nanoseconds, then the inner op.
func encodeLocalRead(mode LocalReadMode, req recovery.Vector, bound time.Duration, op []byte) []byte {
	var head []byte
	switch mode {
	case ReadIndex:
		head = recovery.EncodeVector(req)
	case BoundedStale:
		head = binary.BigEndian.AppendUint64(nil, uint64(bound))
	}
	out := make([]byte, 0, 1+len(head)+len(op))
	out = append(out, byte(mode))
	out = append(out, head...)
	return append(out, op...)
}

// decodeLocalRead splits a KindLocalRead payload back into its parts.
func decodeLocalRead(payload []byte) (mode LocalReadMode, req recovery.Vector, bound time.Duration, op []byte, err error) {
	if len(payload) < 1 {
		return 0, nil, 0, nil, fmt.Errorf("smr: local read: empty payload")
	}
	mode, rest := LocalReadMode(payload[0]), payload[1:]
	switch mode {
	case ReadIndex:
		req, rest, err = recovery.DecodeVector(rest)
		if err != nil {
			return 0, nil, 0, nil, fmt.Errorf("smr: local read: requirement: %w", err)
		}
	case BoundedStale:
		if len(rest) < 8 {
			return 0, nil, 0, nil, fmt.Errorf("smr: local read: truncated bound")
		}
		bound, rest = time.Duration(binary.BigEndian.Uint64(rest)), rest[8:]
	default:
		return 0, nil, 0, nil, fmt.Errorf("smr: local read: unknown mode %d", mode)
	}
	return mode, req, bound, rest, nil
}

// readWaiter is one parked read-index read.
type readWaiter struct {
	req recovery.Vector
	ch  chan struct{}
}

// noteBoundary runs on the merge goroutine after every batch boundary:
// it advances the replica's applied vector to the node's delivered
// vector (all of which has now been applied) and wakes every read-index
// waiter the new vector covers.
func (r *Replica) noteBoundary() {
	vec := r.cfg.Node.DeliveredVector()
	r.readMu.Lock()
	if r.appliedVec == nil {
		r.appliedVec = vec
	} else {
		for g, k := range vec {
			if k > r.appliedVec[g] {
				r.appliedVec[g] = k
			}
		}
	}
	if len(r.readWaiters) > 0 {
		keep := r.readWaiters[:0]
		for _, w := range r.readWaiters {
			if vectorCovers(r.appliedVec, w.req) {
				close(w.ch)
			} else {
				keep = append(keep, w)
			}
		}
		for i := len(keep); i < len(r.readWaiters); i++ {
			r.readWaiters[i] = nil
		}
		r.readWaiters = keep
	}
	r.readMu.Unlock()
}

// vectorCovers reports whether applied[g] >= req[g] for every group in
// req that applied tracks. Groups the replica never subscribed to are
// ignored: a client's observed vector spans all partitions, and
// requirements for rings this replica does not serve can never be (and
// never need to be) satisfied here.
func vectorCovers(applied, req recovery.Vector) bool {
	for g, k := range req {
		have, ok := applied[g]
		if !ok {
			continue
		}
		if have < k {
			return false
		}
	}
	return true
}

// waitCovered blocks until the replica's applied vector covers req,
// returning false on timeout or shutdown.
func (r *Replica) waitCovered(req recovery.Vector, timeout time.Duration) bool {
	r.readMu.Lock()
	if vectorCovers(r.appliedVec, req) {
		r.readMu.Unlock()
		return true
	}
	w := &readWaiter{req: req, ch: make(chan struct{})}
	r.readWaiters = append(r.readWaiters, w)
	r.readMu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w.ch:
		return true
	case <-timer.C:
	case <-r.done:
	}
	// Unregister; the boundary callback may have closed w.ch while we
	// were giving up, in which case the wait did succeed.
	r.readMu.Lock()
	for i, cand := range r.readWaiters {
		if cand == w {
			last := len(r.readWaiters) - 1
			r.readWaiters[i] = r.readWaiters[last]
			r.readWaiters[last] = nil
			r.readWaiters = r.readWaiters[:last]
			break
		}
	}
	r.readMu.Unlock()
	select {
	case <-w.ch:
		return true
	default:
		return false
	}
}

// AppliedVector returns a copy of the replica's applied vector: the
// delivered vector prefix whose commands have all been executed.
func (r *Replica) AppliedVector() recovery.Vector {
	r.readMu.Lock()
	defer r.readMu.Unlock()
	return r.appliedVec.Clone()
}

// ReadWait returns the histogram of read-index wait latencies (time from
// request arrival until the applied vector covered the requirement).
func (r *Replica) ReadWait() *metrics.Histogram { return r.readWait }

// LocalReads reports how many local reads this replica has served.
func (r *Replica) LocalReads() uint64 { return r.localReads.Load() }

// serveLocalRead handles one KindLocalRead request on its own goroutine
// (read-index waits park; the service loop must not).
func (r *Replica) serveLocalRead(m transport.Message) {
	reader, ok := r.cfg.SM.(LocalReader)
	if !ok {
		r.replyLocalRead(m, LocalReadUnsupported, nil)
		return
	}
	mode, req, bound, op, err := decodeLocalRead(m.Payload)
	if err != nil {
		r.replyLocalRead(m, LocalReadBadRequest, nil)
		return
	}
	switch mode {
	case ReadIndex:
		start := time.Now()
		if !r.waitCovered(req, localReadWaitMax) {
			r.replyLocalRead(m, LocalReadTimeout, nil)
			return
		}
		r.readWait.Record(time.Since(start))
	case BoundedStale:
		since, ok := r.cfg.Node.SinceProgress()
		if !ok || since > bound {
			r.replyLocalRead(m, LocalReadStale, nil)
			return
		}
	}
	// The apply gate keeps command application out while the read runs,
	// so the read observes a batch-boundary state — never a partially
	// applied batch, whose state the applied vector and the dedup table
	// do not describe yet.
	r.applyGate.RLock()
	resp, ok := reader.ReadLocal(m.Ring, op)
	r.applyGate.RUnlock()
	if !ok {
		r.replyLocalRead(m, LocalReadUnsupported, nil)
		return
	}
	r.localReads.Add(1)
	r.replyLocalRead(m, LocalReadOK, resp)
}

// replyLocalRead sends the status + result back, stamped with the
// replica's applied high-water mark for the addressed group so the
// client advances its observed vector.
func (r *Replica) replyLocalRead(m transport.Message, status byte, resp []byte) {
	payload := make([]byte, 0, 1+len(resp))
	payload = append(payload, status)
	payload = append(payload, resp...)
	r.readMu.Lock()
	inst := r.appliedVec[m.Ring]
	r.readMu.Unlock()
	_ = r.tr.Send(m.From, transport.Message{
		Kind:     transport.KindLocalReadResp,
		To:       m.From,
		Ring:     m.Ring,
		Count:    uint32(r.cfg.Partition),
		Seq:      m.Seq,
		Instance: inst,
		Payload:  payload,
	})
}
