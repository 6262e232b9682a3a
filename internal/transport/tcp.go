package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"amcast/internal/bufpool"
)

// TCPNode is a Transport over real TCP sockets for multi-process
// deployments (cmd/mrpstore, cmd/dlogd). Frames are length-prefixed binary
// messages; connections are established lazily and re-dialed on failure.
type TCPNode struct {
	id ProcessID
	ln net.Listener
	mb *mailbox

	mu     sync.Mutex
	addrs  map[ProcessID]string
	conns  map[ProcessID]*tcpConn
	redial map[ProcessID]*redialState
	closed bool

	dropped atomic.Uint64

	wg sync.WaitGroup
}

// redialState tracks dial backoff for one unreachable peer so a
// flapping destination cannot trigger a dial (and its 2 s timeout) per
// Send — consecutive failures push the next attempt out exponentially,
// with jitter so a restarted cluster's peers don't re-dial in lockstep.
type redialState struct {
	fails int
	until time.Time
}

const (
	redialBase = 50 * time.Millisecond
	redialMax  = 2 * time.Second
)

type tcpConn struct {
	mu   sync.Mutex // serializes writes
	c    net.Conn
	wbuf []byte // reused frame-encode buffer (coalescing writer)
}

// maxFrame bounds a single message frame (64 MB) to protect against
// corrupt length prefixes.
const maxFrame = 64 << 20

// maxRetainedBuf caps the per-connection encode buffer kept across writes;
// an occasional oversized frame (snapshot transfer) doesn't pin its memory
// on the connection forever.
const maxRetainedBuf = 1 << 20

// appendFrame appends m's length-prefixed encoding to buf.
func appendFrame(buf []byte, m *Message) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = m.AppendEncode(buf)
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(len(buf)-start-4))
	return buf
}

// write encodes the frames into the connection's reused buffer and writes
// them with a single syscall. Returns the write error, if any.
func (c *tcpConn) write(msgs ...Message) error {
	c.mu.Lock()
	buf := c.wbuf[:0]
	for i := range msgs {
		buf = appendFrame(buf, &msgs[i])
	}
	_, err := c.c.Write(buf)
	if cap(buf) <= maxRetainedBuf {
		c.wbuf = buf[:0]
	} else {
		c.wbuf = nil
	}
	c.mu.Unlock()
	return err
}

// ListenTCP starts a TCP transport for process id on addr
// (e.g. "127.0.0.1:7001"). Peer addresses are registered with SetPeer.
func ListenTCP(id ProcessID, addr string) (*TCPNode, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &TCPNode{
		id:     id,
		ln:     ln,
		mb:     newMailbox(),
		addrs:  make(map[ProcessID]string),
		conns:  make(map[ProcessID]*tcpConn),
		redial: make(map[ProcessID]*redialState),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// DroppedSends reports messages dropped on the send path: destination
// unknown, dial failed (or suppressed by re-dial backoff), or the
// connection broke mid-write. Exposed as transport.send.dropped via
// internal/obs — the protocols tolerate fair-lossy links, but silent
// loss should never be invisible in telemetry.
func (n *TCPNode) DroppedSends() uint64 { return n.dropped.Load() }

var _ Transport = (*TCPNode)(nil)
var _ BatchSender = (*TCPNode)(nil)

// ID returns the process id bound to this node.
func (n *TCPNode) ID() ProcessID { return n.id }

// Addr returns the listening address.
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// SetPeer registers the address of a peer process.
func (n *TCPNode) SetPeer(id ProcessID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addrs[id] = addr
}

// Recv returns the incoming message channel.
func (n *TCPNode) Recv() <-chan Message { return n.mb.out }

// Send encodes and writes m to the peer, dialing if necessary. Connection
// errors drop the cached connection so a later Send re-dials; the message
// is lost, which the protocols tolerate (fair-lossy links) — but every
// loss is counted in DroppedSends rather than vanishing silently.
func (n *TCPNode) Send(to ProcessID, m Message) error {
	m.From = n.id
	m.To = to
	conn, err := n.conn(to)
	if err != nil {
		return err
	}
	if conn == nil {
		n.dropped.Add(1)
		return nil // unknown or unreachable peer: treat as lost
	}
	if werr := conn.write(m); werr != nil {
		n.dropped.Add(1)
		n.dropConn(to, conn)
	}
	return nil
}

// SendBatch writes a staged batch of messages, coalescing consecutive
// same-destination messages — the dominant shape on the ring, where a
// drained burst forwards almost everything to the successor — into one
// frame buffer and one write syscall per run.
func (n *TCPNode) SendBatch(msgs []Message) error {
	return forEachRun(msgs, func(run []Message) error {
		to := run[0].To
		for k := range run {
			run[k].From = n.id
		}
		conn, err := n.conn(to)
		if err != nil {
			return err
		}
		if conn == nil {
			n.dropped.Add(uint64(len(run)))
			return nil
		}
		if werr := conn.write(run...); werr != nil {
			n.dropped.Add(uint64(len(run)))
			n.dropConn(to, conn)
		}
		return nil
	})
}

// Close shuts down the listener and all connections.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]*tcpConn, 0, len(n.conns))
	for _, c := range n.conns {
		conns = append(conns, c)
	}
	n.conns = make(map[ProcessID]*tcpConn)
	n.mu.Unlock()

	err := n.ln.Close()
	for _, c := range conns {
		_ = c.c.Close()
	}
	n.wg.Wait()
	n.mb.close()
	return err
}

// conn returns the cached connection to a peer, dialing if necessary.
// A nil, nil return means the message cannot be delivered right now
// (unknown address, peer down, or dial suppressed by backoff); callers
// count the loss in DroppedSends.
func (n *TCPNode) conn(to ProcessID) (*tcpConn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return c, nil
	}
	addr, ok := n.addrs[to]
	if !ok {
		n.mu.Unlock()
		return nil, nil
	}
	if rs := n.redial[to]; rs != nil && time.Now().Before(rs.until) {
		n.mu.Unlock()
		return nil, nil // backing off a failed peer: no dial storm
	}
	n.mu.Unlock()
	raw, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		n.dialFailed(to)
		return nil, nil // peer down: message lost
	}
	// Handshake: announce our id so the peer can map the inbound stream.
	var hello [4]byte
	binary.LittleEndian.PutUint32(hello[:], uint32(n.id))
	if _, err := raw.Write(hello[:]); err != nil {
		_ = raw.Close()
		n.dialFailed(to)
		return nil, nil
	}
	c := &tcpConn{c: raw}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = raw.Close()
		return nil, ErrClosed
	}
	delete(n.redial, to)
	if existing, ok := n.conns[to]; ok {
		n.mu.Unlock()
		_ = raw.Close()
		return existing, nil
	}
	n.conns[to] = c
	n.mu.Unlock()
	n.wg.Add(1)
	go n.readLoop(raw)
	return c, nil
}

// dialFailed schedules the next allowed dial attempt for a peer:
// exponential backoff from redialBase to redialMax, jittered ±50% so
// many senders to one dead peer spread their probes.
func (n *TCPNode) dialFailed(to ProcessID) {
	n.mu.Lock()
	rs := n.redial[to]
	if rs == nil {
		rs = &redialState{}
		n.redial[to] = rs
	}
	rs.fails++
	d := redialBase << min(rs.fails-1, 10)
	if d > redialMax {
		d = redialMax
	}
	jittered := d/2 + rand.N(d)
	rs.until = time.Now().Add(jittered)
	n.mu.Unlock()
}

func (n *TCPNode) dropConn(to ProcessID, c *tcpConn) {
	n.mu.Lock()
	if n.conns[to] == c {
		delete(n.conns, to)
	}
	n.mu.Unlock()
	_ = c.c.Close()
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		raw, err := n.ln.Accept()
		if err != nil {
			return
		}
		// Read the peer's hello so replies can reuse this stream.
		var hello [4]byte
		if _, err := io.ReadFull(raw, hello[:]); err != nil {
			_ = raw.Close()
			continue
		}
		peer := ProcessID(binary.LittleEndian.Uint32(hello[:]))
		c := &tcpConn{c: raw}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = raw.Close()
			return
		}
		if _, ok := n.conns[peer]; !ok {
			n.conns[peer] = c
		}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(raw)
	}
}

// readBlockSize is the pooled block each read syscall fills. At steady
// state one read picks up a whole burst of frames (the sender coalesces
// a ring burst into one write), so the per-frame syscall and per-frame
// allocation of the naive loop both disappear.
const readBlockSize = 256 << 10

// readLoop drains one inbound connection. It reads many frames per
// syscall into a pooled block and decodes them aliasing the block's
// storage: each ring-kind message carries a block reference that its
// consumer releases after the burst drains, while other kinds — whose
// consumers may hold bytes indefinitely — are detached onto the heap
// immediately. A partial frame left at the end of a block is moved
// (never compacted in place — earlier frames in the block are still
// referenced) to a fresh block sized for the frame.
//
//lint:pooled
func (n *TCPNode) readLoop(raw net.Conn) {
	defer n.wg.Done()
	defer func() { _ = raw.Close() }()
	block := bufpool.Get(readBlockSize)
	defer func() { block.Release() }()
	data := block.Bytes()
	start, end := 0, 0
	for {
		// Decode every complete frame buffered in [start, end).
		for end-start >= 4 {
			size := int(binary.LittleEndian.Uint32(data[start : start+4]))
			if size == 0 || size > maxFrame {
				return
			}
			if end-start < 4+size {
				break
			}
			m, err := DecodeMessage(data[start+4 : start+4+size])
			if err != nil {
				return
			}
			start += 4 + size
			if isRingKind(m.Kind) {
				// The pooled steady state: the message rides with a
				// block reference, released by the ring's burst drain.
				block.Retain()
				m.Block = block
			} else {
				// Client/recovery traffic may be retained indefinitely
				// by its consumer: detach from the block here.
				m.DetachAlias()
			}
			n.mb.push(m)
		}
		// Refill. If the remaining space cannot hold the next frame
		// (partial tail near the block's end, or an oversized frame),
		// move the tail to a fresh block first.
		need := 4
		if end-start >= 4 {
			need = 4 + int(binary.LittleEndian.Uint32(data[start:start+4]))
		}
		if len(data)-start < need {
			nb := bufpool.Get(max(readBlockSize, need))
			ndata := nb.Bytes()
			copy(ndata, data[start:end])
			block.Release()
			block, data = nb, ndata
			end -= start
			start = 0
		}
		nn, err := raw.Read(data[end:])
		if err != nil {
			return
		}
		end += nn
	}
}
