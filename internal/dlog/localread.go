package dlog

import (
	"fmt"

	"amcast/internal/smr"
	"amcast/internal/transport"
)

// Local reads: position reads need no multicast round.
var _ smr.LocalReader = (*SM)(nil)

// ReadLocal serves an OpRead against current state. Called with the
// replica's apply gate held in read mode (a batch-boundary state).
func (s *SM) ReadLocal(_ transport.RingID, raw []byte) ([]byte, bool) {
	op, err := DecodeOp(raw)
	if err != nil || op.Kind != OpRead {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apply(op).Encode(), true
}

// ReadLocalAt reads position p of log l from one explicit server via the
// read-index path: the server answers once its applied state covers
// everything this client has observed, without a multicast round.
func (c *Client) ReadLocalAt(target transport.ProcessID, l LogID, p uint64) ([]byte, error) {
	op := Op{Kind: OpRead, Log: l, Pos: p}
	raw, err := c.cl.LocalRead(target, groupOf(l), op.Encode(), smr.ReadIndex, 0, c.Timeout)
	if err != nil {
		return nil, err
	}
	res, err := DecodeResult(raw)
	if err != nil {
		return nil, err
	}
	if res.Status != StatusOK {
		return nil, fmt.Errorf("dlog: local read %d@%d: status %d", l, p, res.Status)
	}
	return res.Value, nil
}
