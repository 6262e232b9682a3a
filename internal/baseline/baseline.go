// Package baseline implements simplified models of the comparator systems
// in the paper's evaluation — Apache Cassandra (Figure 4), MySQL
// (Figure 4) and Apache Bookkeeper (Figure 5) — as real request/response
// servers over the same emulated network the Multi-Ring Paxos systems use.
//
// Each model captures the structural property that drives its figure:
//
//   - EventualStore (Cassandra): no ordering on any request; writes are
//     acknowledged after one replica applies them and replicate
//     asynchronously (consistency ONE), so it outruns every ordered
//     system — except on range scans, which scatter-gather with a
//     per-row cost (workload E's reversal).
//   - SingleNode (MySQL): strongly consistent but a single server; all
//     operations serialize through one service queue.
//   - BookLog (Bookkeeper): quorum-replicated synchronous log whose
//     aggressive time-based batching maximizes disk utilization at the
//     cost of added latency (Figure 5's latency gap).
//
// Absolute service times are calibrated constants (each model's config
// defaults, set where the model is constructed); the figures' shapes come
// from the structure above.
package baseline

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/netem"
	"amcast/internal/transport"
)

// serviceClock serializes a server's CPU: each operation occupies the
// server for a service time; callers observe queueing delay under load,
// which produces realistic saturation curves.
type serviceClock struct {
	mu     sync.Mutex
	busyAt time.Time
}

// occupy reserves d of server time and returns how long the caller waits.
func (c *serviceClock) occupy(d time.Duration) time.Duration {
	now := time.Now()
	c.mu.Lock()
	start := now
	if c.busyAt.After(start) {
		start = c.busyAt
	}
	done := start.Add(d)
	c.busyAt = done
	c.mu.Unlock()
	return done.Sub(now)
}

// rpcClient matches responses to requests over a Router's service channel.
type rpcClient struct {
	tr transport.Transport

	mu      sync.Mutex
	pending map[uint64]chan transport.Message
	seq     atomic.Uint64

	done     chan struct{}
	loopDone chan struct{}
	once     sync.Once
}

func newRPCClient(tr transport.Transport, service <-chan transport.Message) *rpcClient {
	c := &rpcClient{
		tr:       tr,
		pending:  make(map[uint64]chan transport.Message),
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	go func() {
		defer close(c.loopDone)
		for {
			select {
			case <-c.done:
				return
			case m, ok := <-service:
				if !ok {
					return
				}
				if m.Kind != transport.KindResponse {
					continue
				}
				c.mu.Lock()
				ch := c.pending[m.Seq]
				c.mu.Unlock()
				if ch != nil {
					select {
					case ch <- m:
					default:
					}
				}
			}
		}
	}()
	return c
}

// errTimeout reports an unanswered baseline request.
var errTimeout = errors.New("baseline: request timed out")

// call sends payload to server and waits for the response.
func (c *rpcClient) call(server transport.ProcessID, payload []byte, timeout time.Duration) ([]byte, error) {
	seq := c.seq.Add(1)
	ch := make(chan transport.Message, 1)
	c.mu.Lock()
	c.pending[seq] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
	}()
	if err := c.tr.Send(server, transport.Message{
		Kind:    transport.KindCommand,
		Seq:     seq,
		Payload: payload,
	}); err != nil {
		return nil, err
	}
	select {
	case m := <-ch:
		return m.Payload, nil
	case <-time.After(timeout):
		return nil, errTimeout
	case <-c.done:
		return nil, errTimeout
	}
}

func (c *rpcClient) close() {
	c.once.Do(func() {
		close(c.done)
		<-c.loopDone
	})
}

// attach wires a fresh process into the network and returns its transport
// and router.
func attach(net *transport.Network, id transport.ProcessID, site netem.Site) (transport.Transport, *transport.Router) {
	tr := net.Attach(id, site)
	return tr, transport.NewRouter(tr)
}
