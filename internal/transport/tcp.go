package transport

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/ring"
	"harmony/internal/sim"
	"harmony/internal/wire"
)

// The TCP backend runs the same wire protocol as the simulated fabric over
// real connections. Every stream starts with a hello frame naming the
// remote endpoint — encoded as a wire.GossipSyn whose From field carries the
// dialer's ID with no digests, reusing the codec instead of inventing a
// second framing — after which raw frames flow both ways.
//
// The hot path is built around three ideas:
//
//   - Write coalescing: senders encode into pooled scratch and append to a
//     per-stream pending buffer; a flusher goroutine drains whatever has
//     accumulated into ONE conn.Write. Under load, many small frames
//     collapse into a single syscall; idle, the flusher wakes per frame and
//     latency matches the old frame-per-write path.
//   - Zero-copy receive: each connection runs a wire.FrameReader — frames
//     land in owned pooled buffers, decode via DecodeShared (byte fields
//     borrow from the buffer), and the buffer is recycled only after the
//     handler's post completes. Fields that escape delivery are copied by
//     promote (see promote.go) before the message crosses goroutines.
//   - Pooled streams + redial: an endpoint keeps up to Streams parallel
//     connections per peer, picking the least-backlogged for each send so a
//     head-of-line-blocked stream doesn't stall independent requests. Dead
//     connections are dropped on the first error and redialed on demand
//     with capped exponential backoff; sends during backoff drop fast, like
//     packet loss, leaving recovery to protocol timeouts.

// TCPConfig configures a TCP endpoint.
type TCPConfig struct {
	// ID is this endpoint's logical name.
	ID ring.NodeID
	// Listen is the local address ("host:port"); empty disables accepting
	// (pure client endpoints).
	Listen string
	// Peers maps endpoint IDs to dialable addresses.
	Peers map[ring.NodeID]string
	// Logf receives connection diagnostics; nil uses log.Printf.
	Logf func(string, ...any)
	// Streams is how many parallel connections this endpoint dials per
	// peer; zero means 1. Extra streams pipeline independent requests past
	// a slow response at the cost of per-peer FIFO ordering (the protocol
	// tolerates reordering — the simulated fabric delivers with random
	// delays — but single-stream peers keep strict order).
	Streams int
	// MaxPending caps one stream's unflushed bytes; enqueues past the cap
	// drop the frame (counted, like packet loss under overload). Zero
	// means 4 MiB.
	MaxPending int
	// DialBackoff is the first redial delay after a failed dial and
	// DialBackoffMax the cap it doubles toward. Zero means 50ms and 2s.
	DialBackoff    time.Duration
	DialBackoffMax time.Duration
}

// TCPStats is a snapshot of an endpoint's transport counters.
type TCPStats struct {
	FramesSent     uint64 // frames accepted for transmission
	FramesDropped  uint64 // frames dropped (backlog cap, dead peer, backoff)
	FramesReceived uint64 // frames decoded and posted to the handler
	BytesSent      uint64 // payload bytes handed to the kernel
	Batches        uint64 // conn.Write calls issued by flushers
	Dials          uint64 // successful outbound dials
	DialFailures   uint64 // failed outbound dials
}

// TCPNode serves a transport endpoint over real TCP: it accepts connections
// from peers and clients, decodes frames into pooled buffers, and posts
// messages to the handler's runtime. Outbound sends go through a per-peer
// stream pool that batches writes and redials dead connections.
type TCPNode struct {
	id ring.NodeID
	rt sim.Runtime
	// postSelf schedules a loopback delivery: the runtime's never-blocking
	// door when it has one (sim.RealRuntime.PostSelf), else rt.Post.
	postSelf func(func())
	ln       net.Listener
	logf     func(string, ...any)

	streamsPerPeer int
	maxPending     int
	backoffMin     time.Duration
	backoffMax     time.Duration

	framesSent     atomic.Uint64
	framesDropped  atomic.Uint64
	framesReceived atomic.Uint64
	bytesSent      atomic.Uint64
	batches        atomic.Uint64
	dials          atomic.Uint64
	dialFailures   atomic.Uint64

	mu      sync.Mutex
	handler Handler
	peers   map[ring.NodeID]string // static address book
	groups  map[ring.NodeID]*peerGroup
	closed  bool
}

// peerGroup is the stream pool for one peer: every live connection to or
// from that peer (dialed and accepted alike), plus redial backoff state.
type peerGroup struct {
	id ring.NodeID

	mu        sync.Mutex
	streams   []*stream
	backoff   time.Duration
	nextDial  time.Time
	dials     uint64 // successful dials to this peer (redials after the first)
	dialFails uint64 // failed dial attempts to this peer
}

// stream is one TCP connection: a pending write buffer drained by a flusher
// goroutine and a reader goroutine pumping inbound frames.
type stream struct {
	n      *TCPNode
	peer   ring.NodeID
	c      net.Conn
	wake   chan struct{} // cap 1: flusher doorbell
	done   chan struct{}
	closer sync.Once

	mu      sync.Mutex
	pending []byte // frames awaiting flush
	spare   []byte // the flusher's previous batch, recycled
	err     error  // first fatal error; stream is dead once set
}

// NewTCPNode starts listening (when configured) and returns the endpoint.
// The handler's callbacks run on rt, preserving the single-threaded actor
// contract. A nil handler drops inbound messages until SetHandler binds one
// — endpoints whose handler needs the TCPNode as its Sender construct with
// nil and rebind; messages arriving in the window are lost like packets.
func NewTCPNode(cfg TCPConfig, rt sim.Runtime, h Handler) (*TCPNode, error) {
	n := &TCPNode{
		id:             cfg.ID,
		rt:             rt,
		logf:           cfg.Logf,
		handler:        h,
		streamsPerPeer: cfg.Streams,
		maxPending:     cfg.MaxPending,
		backoffMin:     cfg.DialBackoff,
		backoffMax:     cfg.DialBackoffMax,
		peers:          make(map[ring.NodeID]string, len(cfg.Peers)),
		groups:         make(map[ring.NodeID]*peerGroup),
	}
	n.postSelf = rt.Post
	if sp, ok := rt.(interface{ PostSelf(func()) }); ok {
		n.postSelf = sp.PostSelf
	}
	if n.logf == nil {
		n.logf = log.Printf
	}
	if n.streamsPerPeer <= 0 {
		n.streamsPerPeer = 1
	}
	if n.maxPending <= 0 {
		n.maxPending = 4 << 20
	}
	if n.backoffMin <= 0 {
		n.backoffMin = 50 * time.Millisecond
	}
	if n.backoffMax <= 0 {
		n.backoffMax = 2 * time.Second
	}
	for id, addr := range cfg.Peers {
		n.peers[id] = addr
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
		}
		n.ln = ln
		go n.acceptLoop()
	}
	return n, nil
}

// SetHandler rebinds the inbound message handler.
func (n *TCPNode) SetHandler(h Handler) {
	n.mu.Lock()
	n.handler = h
	n.mu.Unlock()
}

func (n *TCPNode) currentHandler() Handler {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.handler
}

// Addr returns the bound listen address (nil when not listening).
func (n *TCPNode) Addr() net.Addr {
	if n.ln == nil {
		return nil
	}
	return n.ln.Addr()
}

// AddPeer registers (or updates) a peer address.
func (n *TCPNode) AddPeer(id ring.NodeID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[id] = addr
}

// Stats snapshots the endpoint's transport counters.
func (n *TCPNode) Stats() TCPStats {
	return TCPStats{
		FramesSent:     n.framesSent.Load(),
		FramesDropped:  n.framesDropped.Load(),
		FramesReceived: n.framesReceived.Load(),
		BytesSent:      n.bytesSent.Load(),
		Batches:        n.batches.Load(),
		Dials:          n.dials.Load(),
		DialFailures:   n.dialFailures.Load(),
	}
}

// PeerStat is one peer's live send-side state: pool size, queued (unflushed)
// bytes across the pool's pending buffers, and this peer's dial history.
type PeerStat struct {
	Peer         ring.NodeID
	Streams      int
	PendingBytes int
	Dials        uint64
	DialFailures uint64
}

// PeerStats snapshots per-peer send-queue depth, sorted by peer id. The
// pending-byte reads take each stream's lock briefly; queue depth is the
// backpressure gauge (bytes appended but not yet handed to the kernel).
func (n *TCPNode) PeerStats() []PeerStat {
	n.mu.Lock()
	groups := make([]*peerGroup, 0, len(n.groups))
	for _, g := range n.groups {
		groups = append(groups, g)
	}
	n.mu.Unlock()
	out := make([]PeerStat, 0, len(groups))
	for _, g := range groups {
		g.mu.Lock()
		ps := PeerStat{Peer: g.id, Streams: len(g.streams), Dials: g.dials, DialFailures: g.dialFails}
		streams := append([]*stream(nil), g.streams...)
		g.mu.Unlock()
		for _, st := range streams {
			st.mu.Lock()
			ps.PendingBytes += len(st.pending)
			st.mu.Unlock()
		}
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

func (n *TCPNode) acceptLoop() {
	for {
		c, err := n.ln.Accept()
		if err != nil {
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if !closed {
				n.logf("transport %s: accept: %v", n.id, err)
			}
			return
		}
		go n.serveConn(c)
	}
}

// serveConn reads the hello frame, joins the connection to the peer's
// stream pool (replies ride it — clients need no listener), then pumps
// inbound frames.
func (n *TCPNode) serveConn(c net.Conn) {
	fr := wire.NewFrameReader(c)
	hello, f, err := fr.Next()
	if err != nil {
		_ = c.Close()
		return
	}
	syn, ok := hello.(wire.GossipSyn)
	f.Release() // GossipSyn decodes into fresh strings; nothing aliases
	if !ok || syn.From == "" {
		n.logf("transport %s: bad hello from %s", n.id, c.RemoteAddr())
		_ = c.Close()
		return
	}
	from := ring.NodeID(syn.From)
	st := n.newStream(from, c)
	if st == nil { // endpoint closed
		_ = c.Close()
		return
	}
	g := n.group(from)
	g.mu.Lock()
	g.streams = append(g.streams, st)
	g.mu.Unlock()
	// Re-check after publication: a Close racing the hello exchange has
	// already swapped the group map and would never see this stream.
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		st.close()
		return
	}
	n.readFrames(fr, st)
}

// newStream wires a connection into a stream and starts its flusher. The
// caller owns starting/driving the read side.
func (n *TCPNode) newStream(peer ring.NodeID, c net.Conn) *stream {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil
	}
	st := &stream{
		n:    n,
		peer: peer,
		c:    c,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go st.flushLoop()
	return st
}

// group returns (creating on demand) the peer's stream pool.
func (n *TCPNode) group(peer ring.NodeID) *peerGroup {
	n.mu.Lock()
	defer n.mu.Unlock()
	g := n.groups[peer]
	if g == nil {
		g = &peerGroup{id: peer}
		n.groups[peer] = g
	}
	return g
}

// Send implements Sender. Errors are handled like packet loss: logged,
// counted, and dropped, leaving recovery to protocol timeouts — but unlike
// the old dial-once transport, a send error also tears the stream down so
// the next send redials instead of failing forever against a poisoned
// cached connection.
//
// The frame is encoded into pooled scratch before any lock is taken;
// concurrent senders contend only on the cheap pending-buffer append.
func (n *TCPNode) Send(from, to ring.NodeID, m wire.Message) {
	if to == n.id {
		// Loopback fast path: a node sending to itself (a coordinator that
		// is a replica of the key, gossip bookkeeping) skips the codec and
		// the kernel entirely and delivers like the in-memory fabrics do —
		// the message is caller-owned, the ownership contract those fabrics
		// already impose on handlers, so no promotion is needed. The sender
		// is the mailbox goroutine itself, which must not block on its own
		// full inbox: hence postSelf, not rt.Post.
		n.postSelf(func() {
			if h := n.currentHandler(); h != nil {
				h.Deliver(from, m)
			}
		})
		return
	}
	st, err := n.streamTo(to)
	if err != nil {
		n.framesDropped.Add(1)
		n.logf("transport %s: send to %s: %v", n.id, to, err)
		return
	}
	buf, err := wire.GetFrame(m)
	if err != nil {
		n.framesDropped.Add(1)
		n.logf("transport %s: encode for %s: %v", n.id, to, err)
		return
	}
	err = st.enqueue(*buf)
	wire.PutFrame(buf)
	if err != nil {
		n.framesDropped.Add(1)
		n.logf("transport %s: write to %s: %v", n.id, to, err)
		n.dropStream(st)
	}
}

var (
	errUnknownPeer = errors.New("unknown peer")
	errBackoff     = errors.New("peer in dial backoff")
	errClosed      = errors.New("endpoint closed")
)

// streamTo picks the best live stream to a peer, dialing a new one when the
// pool is below target and not backing off.
func (n *TCPNode) streamTo(to ring.NodeID) (*stream, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, errClosed
	}
	addr, haveAddr := n.peers[to]
	n.mu.Unlock()

	g := n.group(to)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.prune()
	if len(g.streams) < n.streamsPerPeer && haveAddr && time.Now().After(g.nextDial) {
		st, err := n.dial(to, addr)
		if err != nil {
			n.dialFailures.Add(1)
			g.dialFails++
			if g.backoff <= 0 {
				g.backoff = n.backoffMin
			} else if g.backoff < n.backoffMax {
				g.backoff = min(2*g.backoff, n.backoffMax)
			}
			g.nextDial = time.Now().Add(g.backoff)
			if len(g.streams) == 0 {
				return nil, err
			}
		} else {
			n.dials.Add(1)
			g.dials++
			g.backoff = 0
			g.nextDial = time.Time{}
			g.streams = append(g.streams, st)
		}
	}
	if len(g.streams) == 0 {
		if !haveAddr {
			return nil, errUnknownPeer
		}
		return nil, errBackoff
	}
	return g.pick(n.streamsPerPeer), nil
}

// prune drops dead streams from the pool (their goroutines have already
// torn the connection down; this just forgets them).
func (g *peerGroup) prune() {
	live := g.streams[:0]
	for _, st := range g.streams {
		if st.alive() {
			live = append(live, st)
		}
	}
	for i := len(live); i < len(g.streams); i++ {
		g.streams[i] = nil
	}
	g.streams = live
}

// pick selects the send stream: with a single-stream target the first (and
// normally only) stream, keeping per-peer FIFO; with a pooled target the
// least-backlogged stream, so one slow consumer doesn't head-of-line-block
// the rest — the in-flight tracking that makes pipelining pay.
func (g *peerGroup) pick(target int) *stream {
	if target <= 1 || len(g.streams) == 1 {
		return g.streams[0]
	}
	best, bestLoad := g.streams[0], g.streams[0].backlog()
	for _, st := range g.streams[1:] {
		if l := st.backlog(); l < bestLoad {
			best, bestLoad = st, l
		}
	}
	return best
}

// dial opens a connection to a peer, sends the hello frame, and starts the
// stream's goroutines.
func (n *TCPNode) dial(to ring.NodeID, addr string) (*stream, error) {
	raw, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	hello, err := wire.GetFrame(wire.GossipSyn{From: string(n.id)})
	if err != nil {
		_ = raw.Close()
		return nil, err
	}
	_, err = raw.Write(*hello)
	wire.PutFrame(hello)
	if err != nil {
		_ = raw.Close()
		return nil, err
	}
	st := n.newStream(to, raw)
	if st == nil {
		_ = raw.Close()
		return nil, errClosed
	}
	go n.readFrames(wire.NewFrameReader(raw), st)
	return st, nil
}

// readFrames pumps one connection's inbound frames to the handler. Each
// message rides its own pooled buffer: escaping fields are promoted to
// owned copies here, and the buffer is recycled only after the handler's
// post has run — the DecodeShared contract, end to end.
func (n *TCPNode) readFrames(fr *wire.FrameReader, st *stream) {
	for {
		m, f, err := fr.Next()
		if err != nil {
			n.dropStream(st)
			return
		}
		n.framesReceived.Add(1)
		msg := promote(m)
		from := st.peer
		n.rt.Post(func() {
			if h := n.currentHandler(); h != nil {
				h.Deliver(from, msg)
			}
			f.Release()
		})
	}
}

// dropStream tears a stream down and forgets it, so the next send redials.
func (n *TCPNode) dropStream(st *stream) {
	st.close()
	n.mu.Lock()
	g := n.groups[st.peer]
	n.mu.Unlock()
	if g == nil {
		return
	}
	g.mu.Lock()
	g.prune()
	g.mu.Unlock()
}

// Close shuts the listener and all connections.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	groups := n.groups
	n.groups = make(map[ring.NodeID]*peerGroup)
	n.mu.Unlock()
	for _, g := range groups {
		g.mu.Lock()
		streams := append([]*stream(nil), g.streams...)
		g.streams = nil
		g.mu.Unlock()
		for _, st := range streams {
			st.close()
		}
	}
	if n.ln != nil {
		return n.ln.Close()
	}
	return nil
}

// enqueue hands one encoded frame to the stream: it appends to the pending
// buffer (copying out of the caller's pooled scratch) and rings the
// flusher. Frames beyond the backlog cap are dropped like packets lost to a
// full queue — the error return is reserved for a dead stream, which tells
// the caller to drop it and redial.
func (st *stream) enqueue(frame []byte) error {
	st.mu.Lock()
	if st.err != nil {
		err := st.err
		st.mu.Unlock()
		return err
	}
	if len(st.pending)+len(frame) > st.n.maxPending {
		st.mu.Unlock()
		st.n.framesDropped.Add(1)
		return nil
	}
	st.pending = append(st.pending, frame...)
	st.mu.Unlock()
	st.n.framesSent.Add(1)
	select {
	case st.wake <- struct{}{}:
	default:
	}
	return nil
}

// backlog is the stream's unflushed byte count, the load signal pick uses.
func (st *stream) backlog() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.pending)
}

func (st *stream) alive() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err == nil
}

// maxRetainedBatch bounds the flusher's recycled batch buffer; a burst that
// ballooned past it is returned to the allocator rather than pinned.
const maxRetainedBatch = 1 << 20

// dialTimeout bounds one dial attempt.
const dialTimeout = 2 * time.Second

// flushLoop drains the pending buffer into single writes. Senders append
// while a flush is in flight — the two buffers swap roles each round — so
// under load each conn.Write carries every frame that arrived during the
// previous syscall: batching that adapts to the consumer's speed with no
// timers and no added latency when idle.
func (st *stream) flushLoop() {
	for {
		select {
		case <-st.done:
			return
		case <-st.wake:
		}
		for {
			st.mu.Lock()
			if len(st.pending) == 0 || st.err != nil {
				st.mu.Unlock()
				break
			}
			batch := st.pending
			st.pending = st.spare[:0]
			st.spare = nil
			st.mu.Unlock()

			_, err := st.c.Write(batch)

			st.mu.Lock()
			if cap(batch) <= maxRetainedBatch {
				st.spare = batch[:0]
			}
			if err != nil {
				if st.err == nil {
					st.err = err
				}
				st.pending = nil
				st.mu.Unlock()
				st.n.dropStream(st)
				return
			}
			st.mu.Unlock()
			st.n.batches.Add(1)
			st.n.bytesSent.Add(uint64(len(batch)))
		}
	}
}

// close marks the stream dead and closes the connection; safe to call from
// any goroutine, any number of times.
func (st *stream) close() {
	st.closer.Do(func() {
		st.mu.Lock()
		if st.err == nil {
			st.err = net.ErrClosed
		}
		st.pending = nil
		st.mu.Unlock()
		close(st.done)
		_ = st.c.Close()
	})
}

var _ Sender = (*TCPNode)(nil)
