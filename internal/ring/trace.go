package ring

import (
	"sync"
	"time"

	"amcast/internal/trace"
	"amcast/internal/transport"
)

// Trace-context plumbing. The ring protocol's queues (pendingQ, inFlight,
// learned) store transport.Values, not Messages, so the sampled trace
// contexts that arrive as optional frame headers are parked in a bounded
// value-id-keyed tag table and re-attached when the value leaves the
// node again (Phase 2, Decision, retransmission). All of it is
// telemetry: the table is best-effort (FIFO eviction) and never feeds
// protocol state.

// tagTableCap bounds the per-node tag table. At a 1% sampling rate this
// covers hundreds of thousands of in-flight proposals; entries evict
// FIFO, so a lost tag merely truncates one trace, never blocks a value.
const tagTableCap = 8192

type traceTags struct {
	mu   sync.Mutex
	m    map[uint64]trace.Context
	fifo []uint64
}

func newTraceTags() *traceTags {
	return &traceTags{m: make(map[uint64]trace.Context, 64)}
}

func (t *traceTags) put(id uint64, ctx trace.Context) {
	if t == nil || id == 0 || !ctx.Sampled() {
		return
	}
	t.mu.Lock()
	if _, ok := t.m[id]; !ok {
		if len(t.fifo) >= tagTableCap {
			delete(t.m, t.fifo[0])
			t.fifo = t.fifo[1:]
		}
		t.fifo = append(t.fifo, id)
	}
	t.m[id] = ctx
	t.mu.Unlock()
}

func (t *traceTags) get(id uint64) (trace.Context, bool) {
	if t == nil || id == 0 {
		return trace.Context{}, false
	}
	t.mu.Lock()
	ctx, ok := t.m[id]
	t.mu.Unlock()
	return ctx, ok
}

// TraceContextOf returns the sampled trace context this node has seen
// for a value id, if any. The Multi-Ring Paxos merge uses it to stamp
// deliveries (telemetry-only; never protocol state).
func (n *Node) TraceContextOf(id uint64) (trace.Context, bool) {
	return n.tags.get(id)
}

// ingestTraces parks the sampled contexts riding an incoming message.
func (n *Node) ingestTraces(m *transport.Message) {
	if n.tracer == nil || len(m.Traces) == 0 {
		return
	}
	for _, tr := range m.Traces {
		n.tags.put(tr.ValueID, tr.Ctx)
	}
}

// eachTrace calls fn for every sampled context attached to v's value id
// — or, for a message-packed value, to each inner value id.
func (n *Node) eachTrace(v transport.Value, fn func(id uint64, ctx trace.Context)) {
	if n.tracer == nil {
		return
	}
	if v.Batched {
		_ = transport.VisitBatch(v.Data, func(iv transport.InstanceValue) {
			if ctx, ok := n.tags.get(iv.Value.ID); ok {
				fn(iv.Value.ID, ctx)
			}
		})
		return
	}
	if ctx, ok := n.tags.get(v.ID); ok {
		fn(v.ID, ctx)
	}
}

// attachTraces re-attaches parked contexts to an outgoing message built
// fresh from a value (Phase 2, Decision). Forwarded messages keep their
// decoded Traces and need no re-attachment.
func (n *Node) attachTraces(m *transport.Message) {
	n.eachTrace(m.Value, func(id uint64, ctx trace.Context) {
		m.Traces = append(m.Traces, transport.TraceRef{ValueID: id, Ctx: ctx})
	})
}

// attachBatchTraces re-attaches parked contexts for a retransmission
// batch, so the catch-up path re-delivers trace context along with the
// decided values it replays.
func (n *Node) attachBatchTraces(m *transport.Message, batch []transport.InstanceValue) {
	if n.tracer == nil {
		return
	}
	for _, iv := range batch {
		n.eachTrace(iv.Value, func(id uint64, ctx trace.Context) {
			m.Traces = append(m.Traces, transport.TraceRef{ValueID: id, Ctx: ctx})
		})
	}
}

// spanNow records a point span (zero duration) for every sampled
// context on v: the value passed through hop `name` at this node.
func (n *Node) spanNow(name string, inst uint64, v transport.Value) {
	if n.tracer == nil {
		return
	}
	var now time.Time
	n.eachTrace(v, func(id uint64, ctx trace.Context) {
		if now.IsZero() {
			now = time.Now()
		}
		n.tracer.Add(ctx, name, uint32(n.ring), inst, id, now, 0)
	})
}

// stagedTrace remembers a sampled vote staged for the current burst's
// group commit, so commitStaged can record one wal-commit span per
// traced value covering the PutBatch (and its fsync) the vote waited on.
type stagedTrace struct {
	id   uint64
	inst uint64
	ctx  trace.Context
}

// traceStagedVote queues wal-commit spans for a vote being staged.
func (n *Node) traceStagedVote(inst uint64, v transport.Value) {
	if n.tracer == nil {
		return
	}
	n.eachTrace(v, func(id uint64, ctx trace.Context) {
		n.stagedTraces = append(n.stagedTraces, stagedTrace{id: id, inst: inst, ctx: ctx})
	})
}
