package baseline

import (
	"sync"
	"time"

	"amcast/internal/netem"
	"amcast/internal/store"
	"amcast/internal/transport"
)

// EventualConfig configures the Cassandra-like store.
type EventualConfig struct {
	// Net is the shared emulated network.
	Net *transport.Network
	// Partitions and ReplicationFactor define the layout (Figure 4 uses
	// 3 partitions with replication factor 3).
	Partitions        int
	ReplicationFactor int
	// WriteServiceTime and ReadServiceTime model per-operation server
	// cost (defaults set in StartEventual).
	WriteServiceTime time.Duration
	ReadServiceTime  time.Duration
	// ScanPerRow models Cassandra's expensive range scans: added server
	// time per row returned.
	ScanPerRow time.Duration
	// BaseID is the first process id used by servers.
	BaseID transport.ProcessID
}

// EventualStore is the Cassandra model: per-partition replica groups,
// write-one/read-one consistency, asynchronous replication, no ordering.
type EventualStore struct {
	cfg     EventualConfig
	schema  store.Schema
	servers []*eventualServer
}

type eventualServer struct {
	id        transport.ProcessID
	partition int
	replicas  []transport.ProcessID // peers of the same partition
	tr        transport.Transport
	clock     serviceClock
	cfg       *EventualConfig

	mu sync.Mutex
	db *store.SM // reuse the KV state machine as the local table

	done     chan struct{}
	loopDone chan struct{}
}

// StartEventual boots the Cassandra-like cluster.
func StartEventual(cfg EventualConfig) (*EventualStore, error) {
	if cfg.Partitions == 0 {
		cfg.Partitions = 3
	}
	if cfg.ReplicationFactor == 0 {
		cfg.ReplicationFactor = 3
	}
	if cfg.WriteServiceTime == 0 {
		cfg.WriteServiceTime = 15 * time.Microsecond
	}
	if cfg.ReadServiceTime == 0 {
		cfg.ReadServiceTime = 12 * time.Microsecond
	}
	if cfg.ScanPerRow == 0 {
		cfg.ScanPerRow = 25 * time.Microsecond
	}
	if cfg.BaseID == 0 {
		cfg.BaseID = 30000
	}
	// Partition p's groups use ring ids 1..P so store.Schema routing
	// works unchanged; servers are plain processes (no rings involved).
	groups := make([]transport.RingID, cfg.Partitions)
	for i := range groups {
		groups[i] = transport.RingID(i + 1)
	}
	s := &EventualStore{cfg: cfg, schema: store.HashSchema(groups, 0)}
	for p := 0; p < cfg.Partitions; p++ {
		var ids []transport.ProcessID
		for r := 0; r < cfg.ReplicationFactor; r++ {
			ids = append(ids, cfg.BaseID+transport.ProcessID(p*10+r))
		}
		for r, id := range ids {
			srv := &eventualServer{
				id:        id,
				partition: p,
				cfg:       &cfg,
				db:        store.NewSM(),
				done:      make(chan struct{}),
				loopDone:  make(chan struct{}),
			}
			for rr, peer := range ids {
				if rr != r {
					srv.replicas = append(srv.replicas, peer)
				}
			}
			tr, router := attach(cfg.Net, id, netem.SiteLocal)
			srv.tr = tr
			go srv.loop(router.Service())
			s.servers = append(s.servers, srv)
		}
	}
	return s, nil
}

// Coordinator returns the server a client should contact for a key (the
// first replica of the owning partition).
func (s *EventualStore) Coordinator(key string) transport.ProcessID {
	g := int(s.schema.PartitionOf(key)) - 1
	return s.cfg.BaseID + transport.ProcessID(g*10)
}

// Coordinators returns one coordinator per partition (for scatter-gather).
func (s *EventualStore) Coordinators() []transport.ProcessID {
	out := make([]transport.ProcessID, s.cfg.Partitions)
	for p := range out {
		out[p] = s.cfg.BaseID + transport.ProcessID(p*10)
	}
	return out
}

// Stop halts all servers.
func (s *EventualStore) Stop() {
	for _, srv := range s.servers {
		close(srv.done)
		<-srv.loopDone
		_ = srv.tr.Close()
	}
}

func (srv *eventualServer) loop(service <-chan transport.Message) {
	defer close(srv.loopDone)
	for {
		select {
		case <-srv.done:
			return
		case m, ok := <-service:
			if !ok {
				return
			}
			if m.Kind != transport.KindCommand {
				continue
			}
			srv.handle(m)
		}
	}
}

func (srv *eventualServer) handle(m transport.Message) {
	op, err := store.DecodeOp(m.Payload)
	if err != nil {
		return
	}
	cost := srv.cfg.ReadServiceTime
	switch op.Kind {
	case store.OpUpdate, store.OpInsert, store.OpDelete:
		cost = srv.cfg.WriteServiceTime
	}
	srv.mu.Lock()
	raw := srv.db.Execute(0, m.Payload)
	srv.mu.Unlock()
	if op.Kind == store.OpScan {
		if res, err := store.DecodeResult(raw); err == nil {
			cost += time.Duration(len(res.Entries)) * srv.cfg.ScanPerRow
		}
	}
	// Replication message (Seq 0): apply only, no reply, no fan-out.
	if m.Seq == 0 {
		return
	}
	// Asynchronous replication to the partition peers (consistency ONE:
	// reply before peers apply).
	for _, peer := range srv.replicas {
		_ = srv.tr.Send(peer, transport.Message{Kind: transport.KindCommand, Seq: 0, Payload: m.Payload})
	}
	// The service clock serializes server capacity; the reply is deferred
	// without blocking the accept loop (requests overlap, as in a real
	// threaded server).
	wait := srv.clock.occupy(cost)
	go func() {
		if wait > 0 {
			time.Sleep(wait)
		}
		_ = srv.tr.Send(m.From, transport.Message{Kind: transport.KindResponse, Seq: m.Seq, Payload: raw})
	}()
}

// EventualClient is a client of the Cassandra model.
type EventualClient struct {
	s   *EventualStore
	rpc *rpcClient
	// Timeout per operation.
	Timeout time.Duration
}

// NewClient attaches a client process.
func (s *EventualStore) NewClient(id transport.ProcessID) *EventualClient {
	tr, router := attach(s.cfg.Net, id, netem.SiteLocal)
	return &EventualClient{
		s:       s,
		rpc:     newRPCClient(tr, router.Service()),
		Timeout: 10 * time.Second,
	}
}

// Do executes one single-key operation (read/update/insert/delete).
func (c *EventualClient) Do(op store.Op) (store.Result, error) {
	raw, err := c.rpc.call(c.s.Coordinator(op.Key), op.Encode(), c.Timeout)
	if err != nil {
		return store.Result{}, err
	}
	return store.DecodeResult(raw)
}

// Scan scatter-gathers a range over every partition coordinator.
func (c *EventualClient) Scan(lo, hi string) ([]store.Entry, error) {
	op := store.Op{Kind: store.OpScan, Key: lo, KeyHi: hi}
	var all []store.Entry
	for _, coordID := range c.s.Coordinators() {
		raw, err := c.rpc.call(coordID, op.Encode(), c.Timeout)
		if err != nil {
			return nil, err
		}
		res, err := store.DecodeResult(raw)
		if err != nil {
			return nil, err
		}
		all = append(all, res.Entries...)
	}
	return all, nil
}

// Close releases the client.
func (c *EventualClient) Close() { c.rpc.close() }
