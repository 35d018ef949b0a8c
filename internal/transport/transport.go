// Package transport runs replicas and clients over real TCP connections —
// the "easy local multi-node" deployment path. It implements core.Driver:
// every inbound message and timer callback is funneled through a single
// event loop per node, so protocol code keeps the same single-threaded
// contract it has on the simulator.
//
// Wire format: length-prefixed frames carrying gob-encoded envelopes on
// persistent connections (frame.go bounds every envelope before the
// decoder touches it). All protocol message types are registered in
// wire.go.
//
// Delivery contract: lossy, like the simulator's adversarial networks.
// Send never blocks the caller — envelopes are queued per peer and
// drained by a background sender that dials off the hot path with
// jittered exponential backoff. A full queue, an unreachable peer, or a
// connection that dies mid-write all drop messages; the protocols are
// built for exactly that (retransmission timers, view changes). What the
// transport does guarantee: a send to one peer never stalls behind
// another peer's dial, FIFO order per peer on an established connection,
// and that a hostile or corrupt stream costs its connection, never the
// node.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"bftkit/internal/obsv"
	"bftkit/internal/types"
)

// Envelope frames one message on the wire. An envelope with a nil Msg is
// a hello: the dialer sends it immediately after connecting so the
// acceptor can adopt the connection as the return path to From, and the
// acceptor answers with a hello of its own once it has. Neither side
// sends protocol traffic on a connection before that handshake settles
// it. From is not authenticated at this layer — the crypto authority
// authenticates message *contents*; the untrusted network is assumed to
// spoof, drop, and replay at will.
type Envelope struct {
	From types.NodeID
	Msg  types.Message
}

// Handler receives delivered messages (core.Replica and core.Client
// satisfy it).
type Handler interface {
	Deliver(from types.NodeID, m types.Message)
}

// DefaultQueueCap bounds each peer's outbound queue; overflow drops the
// oldest queued envelope (the newest traffic is what keeps a protocol
// live — old messages are superseded by retransmissions).
const DefaultQueueCap = 4096

// dialTimeout bounds one TCP connection attempt. It runs on the peer's
// sender goroutine, never on a caller of Send.
const dialTimeout = 2 * time.Second

// Reconnect backoff: base doubles per consecutive failure up to the cap,
// with ±50% jitter so a restarted replica isn't hammered in lockstep.
const (
	backoffBase = 25 * time.Millisecond
	backoffMax  = 2 * time.Second
)

// retireGrace bounds how long a replacement connection holds its
// deliveries back while the connection it replaced drains. The peer
// half-closes a retired connection as soon as it switches, so the bound
// only matters when the old stream died without a FIN.
const retireGrace = dialTimeout

// errRetired is what a write on a retired connection returns: nothing
// was written, so the envelope can go out on the replacement.
var errRetired = errors.New("transport: connection retired")

// Node is one TCP participant: it listens for peers, keeps one outbound
// queue and at most one live connection per peer, and serializes all
// protocol activity through its event loop.
type Node struct {
	id    types.NodeID
	peers map[types.NodeID]string
	seed  int64
	start time.Time
	rng   *rand.Rand

	maxFrame int
	queueCap int

	events  chan func()
	handler Handler
	tracer  *obsv.Tracer
	prepare func(from types.NodeID, m types.Message)

	// dial is swappable so tests can make dials hang or fail
	// deterministically without touching the kernel.
	dial func(addr string, timeout time.Duration) (net.Conn, error)

	mu      sync.Mutex
	peerSt  map[types.NodeID]*peer
	open    map[*wireConn]struct{}
	nextGen uint64

	// stopMu serializes goroutine starts against Stop: a tracked
	// goroutine may only start while stopped is false, so wg.Add never
	// races wg.Wait.
	stopMu  sync.RWMutex
	stopped bool

	listener net.Listener
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// wireConn is one live socket: a framed gob stream, its byte counter,
// and the identity bookkeeping the connection manager needs. gen rises
// monotonically per node, so a stale failure can never evict the
// replacement connection that superseded it.
type wireConn struct {
	c       net.Conn
	gen     uint64
	inbound bool // accepted (true) vs dialed by this node (false)

	// dialer is the node that initiated the connection: this node for
	// dialed conns, the claimed Envelope.From for adopted inbound ones.
	// The duplicate-connection tie-break keys on it.
	dialer types.NodeID

	// peer/hasPeer bind the conn to a peer slot once known. Written only
	// by the goroutine that installs the conn, before it is published.
	peer    types.NodeID
	hasPeer bool

	mu      sync.Mutex // serializes writes (sender vs hello vs tie-break)
	retired bool       // write side half-closed; guarded by mu
	enc     *gob.Encoder
	buf     bytes.Buffer
	scratch []byte
	w       io.Writer
	total   func() int64

	// settled closes once the first inbound envelope (the peer's hello)
	// was adopted or refused, or the read loop ended without one.
	settled chan struct{}
	// drained closes once the read loop has ended and every message it
	// read has been handed to the event loop.
	drained chan struct{}
}

// peer is one outbound lane: the queue Send appends to, the current
// connection (nil while disconnected), and the sender bookkeeping.
type peer struct {
	id   types.NodeID
	addr string // "" for adopted-only peers (clients are not in the table)
	rng  *rand.Rand

	mu        sync.Mutex
	queue     []*Envelope
	cur       *wireConn
	running   bool // a sender goroutine is draining the queue
	dialFails int  // consecutive failures, drives backoff
	connected bool // a connection has existed at some point (dial vs reconnect)
}

// NewNode creates a node addressed by id with a static peer table
// (id → "host:port" for every participant, including this one).
func NewNode(id types.NodeID, peers map[types.NodeID]string, seed int64) *Node {
	return &Node{
		id:       id,
		peers:    peers,
		seed:     seed,
		start:    time.Now(),
		rng:      rand.New(rand.NewSource(seed ^ int64(id))),
		maxFrame: DefaultMaxFrame,
		queueCap: DefaultQueueCap,
		events:   make(chan func(), 4096),
		peerSt:   make(map[types.NodeID]*peer),
		open:     make(map[*wireConn]struct{}),
		dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		},
		done: make(chan struct{}),
	}
}

// SetHandler installs the delivery target (must be set before Start).
func (n *Node) SetHandler(h Handler) { n.handler = h }

// SetTracer attaches the observability sink: every send and delivery is
// reported with the actual wire bytes that crossed the socket. Pass nil
// to detach. Must be set before Start.
func (n *Node) SetTracer(t *obsv.Tracer) { n.tracer = t }

// SetInboundPrepare installs an async inbound stage: fn runs for every
// inbound protocol envelope on a per-connection lane goroutine, off the
// event loop, before the envelope is enqueued for delivery. The
// verification engine uses it to batch-verify a message's signature
// claims while the event loop processes earlier traffic. Ordering
// guarantees are unchanged — one lane per connection preserves the
// per-peer FIFO the protocols rely on, and delivery still happens on the
// event loop. fn must be concurrency-safe (lanes run in parallel) and
// must not block indefinitely. Pass nil for the default synchronous
// path. Must be set before Start.
func (n *Node) SetInboundPrepare(fn func(from types.NodeID, m types.Message)) { n.prepare = fn }

// laneCap bounds one connection's inbound-verify lane. A full lane
// applies backpressure to that connection's read loop only — exactly the
// per-conn isolation the rest of the transport maintains.
const laneCap = 1024

// laneItem is one prepared-and-forwarded inbound message.
type laneItem struct {
	from types.NodeID
	msg  types.Message
}

// runLane drains one connection's inbound lane: prepare, then hand to
// the event loop. Exits when the owning read loop closes the lane (after
// draining it) or the node stops.
func (n *Node) runLane(lane chan laneItem) {
	for it := range lane {
		n.prepare(it.from, it.msg)
		from, msg := it.from, it.msg
		select {
		case n.events <- func() { n.handler.Deliver(from, msg) }:
			n.tracer.ObserveQueueDepth(len(n.events))
		case <-n.done:
			return
		}
	}
}

// SetMaxFrame bounds one envelope on the wire (default DefaultMaxFrame).
// Inbound frames over the bound cost the connection; outbound envelopes
// over it are dropped. Must be set before Start and match across the
// deployment.
func (n *Node) SetMaxFrame(bytes int) {
	if bytes > 0 {
		n.maxFrame = bytes
	}
}

// SetQueueCap bounds each peer's outbound queue (default
// DefaultQueueCap). Must be set before Start.
func (n *Node) SetQueueCap(msgs int) {
	if msgs > 0 {
		n.queueCap = msgs
	}
}

// Start listens on the node's own address and runs the event loop until
// Stop. It returns once the listener is ready.
func (n *Node) Start() error {
	addr, ok := n.peers[n.id]
	if !ok {
		return fmt.Errorf("transport: no address for self (%v)", n.id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n.listener = ln
	n.goTracked(n.acceptLoop)
	n.goTracked(n.eventLoop)
	return nil
}

// Stop shuts the node down: no new goroutines start, the listener and
// every live connection close (unblocking reads and in-flight writes),
// and Stop waits for every sender, read loop, and the event loop to
// exit. Safe to call more than once.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		n.stopMu.Lock()
		n.stopped = true
		n.stopMu.Unlock()
		close(n.done)
		if n.listener != nil {
			n.listener.Close()
		}
		n.mu.Lock()
		conns := make([]*wireConn, 0, len(n.open))
		for wc := range n.open {
			conns = append(conns, wc)
		}
		n.mu.Unlock()
		for _, wc := range conns {
			wc.c.Close()
		}
		n.wg.Wait()
	})
}

// goTracked starts fn under the WaitGroup unless the node is stopping.
func (n *Node) goTracked(fn func()) bool {
	n.stopMu.RLock()
	defer n.stopMu.RUnlock()
	if n.stopped {
		return false
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		fn()
	}()
	return true
}

func (n *Node) stopping() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

func (n *Node) eventLoop() {
	for {
		select {
		case fn := <-n.events:
			fn()
		case <-n.done:
			return
		}
	}
}

func (n *Node) acceptLoop() {
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			select {
			case <-n.done:
				return
			default:
				continue
			}
		}
		wc := n.newWireConn(conn, true)
		if wc == nil || !n.goTracked(func() { n.readLoop(wc) }) {
			conn.Close()
			return
		}
	}
}

// newWireConn wraps a socket in a counted, framed gob stream and tracks
// it for Stop. Returns nil when the node is already stopping.
func (n *Node) newWireConn(c net.Conn, inbound bool) *wireConn {
	w, total := obsv.WriteCounted(c)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextGen++
	wc := &wireConn{
		c:       c,
		gen:     n.nextGen,
		inbound: inbound,
		w:       w,
		total:   total,
		settled: make(chan struct{}),
		drained: make(chan struct{}),
	}
	wc.enc = gob.NewEncoder(&wc.buf)
	if !inbound {
		wc.dialer = n.id
	}
	if n.stoppedLocked() {
		return nil
	}
	n.open[wc] = struct{}{}
	return wc
}

// stoppedLocked reads the stop flag without the stopMu (n.mu held; the
// only writer of stopped also closes every conn after taking n.mu, so a
// conn registered here is either seen by Stop or its creator sees
// stopped — never neither).
func (n *Node) stoppedLocked() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

func (n *Node) removeOpen(wc *wireConn) {
	n.mu.Lock()
	delete(n.open, wc)
	n.mu.Unlock()
}

// writeEnvelope encodes env into one length-prefixed frame and writes it
// out, returning the wire bytes that crossed the socket. An envelope
// that encodes past max poisons the stream (the encoder's descriptor
// state now references types the peer never saw), so the caller must
// recycle the connection on any error.
func (wc *wireConn) writeEnvelope(env *Envelope, max int) (int, error) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.retired {
		return 0, errRetired
	}
	wc.buf.Reset()
	if err := wc.enc.Encode(env); err != nil {
		return 0, err
	}
	payload := wc.buf.Bytes()
	if len(payload) > max {
		return 0, frameSizeError{declared: uint32(len(payload)), max: max}
	}
	need := frameHeaderLen + len(payload)
	if cap(wc.scratch) < need {
		wc.scratch = make([]byte, need)
	}
	frame := wc.scratch[:need]
	binary.BigEndian.PutUint32(frame[:frameHeaderLen], uint32(len(payload)))
	copy(frame[frameHeaderLen:], payload)
	before := wc.total()
	_, err := wc.w.Write(frame)
	return int(wc.total() - before), err
}

// readLoop drains one connection: framed envelopes are decoded under the
// frame bound and handed to the event loop. The first envelope is the
// peer's hello, which installs the connection as the peer's lane (or
// refuses it). Any error — disconnect, oversized frame, garbage — closes
// and detaches the connection; the node itself never dies with it. A
// retired connection is read until the peer's EOF, so nothing the peer
// wrote before it switched over is lost.
func (n *Node) readLoop(wc *wireConn) {
	defer n.detachConn(wc)
	hello := false
	defer func() {
		if !hello {
			close(wc.settled)
		}
	}()
	cr, rtotal := obsv.ReadCounted(wc.c)
	fr := newFrameReader(cr, n.maxFrame)
	dec := gob.NewDecoder(fr)
	var lane chan laneItem
	if n.prepare != nil {
		lane = make(chan laneItem, laneCap)
		if !n.goTracked(func() {
			defer close(wc.drained)
			n.runLane(lane)
		}) {
			close(wc.drained)
			return
		}
		// Closing the lane when this read loop exits lets the lane drain
		// what it already accepted, then stop — no goroutine leak, no
		// dropped prepared messages.
		defer close(lane)
	} else {
		defer close(wc.drained)
	}
	for {
		before := rtotal()
		if err := fr.next(); err != nil {
			if isFrameViolation(err) {
				n.tracer.TransportEvent(obsv.TransportFrameReject)
			}
			return
		}
		var env Envelope
		if err := dec.Decode(&env); err != nil {
			// A frame that does not decode as exactly one envelope is
			// hostile or corrupt; the stream cannot be trusted further.
			n.tracer.TransportEvent(obsv.TransportFrameReject)
			return
		}
		if fr.remaining() != 0 {
			n.tracer.TransportEvent(obsv.TransportFrameReject)
			return
		}
		size := int(rtotal() - before)
		if !hello {
			// The peer's hello: install the connection as the lane to the
			// peer — for an inbound one, the return path clients (absent
			// from the static peer table) are replied to over.
			hello = true
			id := env.From
			if !wc.inbound {
				id = wc.peer
			}
			prev, ok := n.install(id, wc)
			close(wc.settled)
			if !ok {
				wc.retire()
			} else if prev != nil && !n.awaitDrained(prev) {
				return
			}
		}
		if env.Msg == nil {
			continue // hello/keepalive: installation was its whole job
		}
		from, msg := env.From, env.Msg
		n.tracer.MsgDelivered(n.Now(), from, n.id, msg, size)
		if lane != nil {
			// Async path: the lane goroutine prepares (pre-verifies) and
			// forwards, keeping this connection's FIFO; a full lane blocks
			// only this read loop.
			select {
			case lane <- laneItem{from: from, msg: msg}:
				n.tracer.ObserveVerifyQueueDepth(len(lane))
			case <-n.done:
				return
			}
			continue
		}
		select {
		case n.events <- func() { n.handler.Deliver(from, msg) }:
			n.tracer.ObserveQueueDepth(len(n.events))
		case <-n.done:
			return
		}
	}
}

// preferNew decides a duplicate-connection tie for peer p: of two live
// connections for the same pair, the one dialed by the lower node ID
// wins — both ends compute the same winner independently, so a
// simultaneous dial converges on one socket instead of ping-ponging.
// When both conns were initiated by the same side, the newer replaces
// the older (that side discarded its previous socket).
func (n *Node) preferNew(old, neu *wireConn, p types.NodeID) bool {
	if old.dialer == neu.dialer {
		return true
	}
	low := n.id
	if p < low {
		low = p
	}
	return neu.dialer == low
}

// install makes wc the lane to peer id on the peer's hello, resolving a
// duplicate by the tie-break. An inbound connection is acknowledged with
// our own hello before any sender can write to it; a dialed one is
// installed on that acknowledgement. A connection that loses is refused
// (the caller retires it) and one that is replaced is retired here and
// returned: it may still carry the peer's last messages, which must be
// delivered before anything that arrives on wc. Called by wc's read loop.
func (n *Node) install(id types.NodeID, wc *wireConn) (prev *wireConn, ok bool) {
	if wc.inbound {
		wc.dialer = id
		wc.peer = id
		wc.hasPeer = true
	}
	p := n.ensurePeer(id)
	p.mu.Lock()
	prev = p.cur
	if prev != nil && !n.preferNew(prev, wc, id) {
		p.mu.Unlock()
		return nil, false
	}
	if wc.inbound {
		if _, err := wc.writeEnvelope(&Envelope{From: n.id}, n.maxFrame); err != nil {
			p.mu.Unlock()
			return nil, false
		}
	}
	p.cur = wc
	p.dialFails = 0
	p.connected = true
	n.startSenderLocked(p)
	p.mu.Unlock()
	if prev != nil {
		prev.retire()
	}
	return prev, true
}

// retire ends our side of a superseded connection: once any write in
// progress finishes, the write side is half-closed, so the peer reads
// everything we sent and then EOF. The read side stays open until the
// peer does the same. A write stuck on a peer that stopped reading is
// cut off after retireGrace and its envelope goes out on the
// replacement.
func (wc *wireConn) retire() {
	// Errors from a dead socket need no handling here: its read loop
	// fails and detaches it.
	_ = wc.c.SetWriteDeadline(time.Now().Add(retireGrace))
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.retired {
		return
	}
	wc.retired = true
	if hc, ok := wc.c.(interface{ CloseWrite() error }); ok {
		_ = hc.CloseWrite()
	} else {
		wc.c.Close()
	}
}

// awaitDrained holds a replacement connection's deliveries until the
// connection it replaced has delivered everything it read, so a peer's
// messages reach the event loop in the order it sent them. If the old
// stream does not end within retireGrace it is cut. Reports false when
// the node stops.
func (n *Node) awaitDrained(old *wireConn) bool {
	t := time.NewTimer(retireGrace)
	defer t.Stop()
	select {
	case <-old.drained:
		return true
	case <-n.done:
		return false
	case <-t.C:
		old.c.Close()
	}
	select {
	case <-old.drained:
		return true
	case <-n.done:
		return false
	}
}

// detachConn runs when a read loop exits: the socket closes, and if the
// conn was the peer's current one it is unlinked — generation identity,
// not peer ID, decides, so a replacement installed in the meantime is
// never evicted by its predecessor's death.
func (n *Node) detachConn(wc *wireConn) {
	// Unlink before closing, so a send failing on the closed socket sees
	// a connection that is no longer current and requeues its envelope.
	defer func() {
		wc.c.Close()
		n.removeOpen(wc)
	}()
	if !wc.hasPeer {
		return
	}
	p := n.lookupPeer(wc.peer)
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.cur != nil && p.cur.gen == wc.gen {
		p.cur = nil
		n.tracer.TransportEvent(obsv.TransportConnDrop)
		if p.addr == "" {
			// Replies queued for a vanished client are undeliverable and
			// would only go stale; the client retransmits on reconnect.
			for range p.queue {
				n.tracer.TransportEvent(obsv.TransportSendDrop)
			}
			p.queue = nil
		} else {
			n.startSenderLocked(p) // pending sends trigger the redial
		}
	}
	p.mu.Unlock()
}

// lookupPeer returns the peer lane if one exists.
func (n *Node) lookupPeer(id types.NodeID) *peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peerSt[id]
}

// ensurePeer returns the peer lane, creating it on first contact.
func (n *Node) ensurePeer(id types.NodeID) *peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peerSt[id]
	if p == nil {
		p = &peer{
			id:   id,
			addr: n.peers[id],
			rng:  rand.New(rand.NewSource(n.seed ^ int64(n.id)<<20 ^ int64(id))),
		}
		n.peerSt[id] = p
	}
	return p
}

// startSenderLocked launches the peer's sender if there is work it can
// make progress on. Caller holds p.mu.
func (n *Node) startSenderLocked(p *peer) {
	if p.running || len(p.queue) == 0 {
		return
	}
	if p.cur == nil && p.addr == "" {
		return // adopted-only peer with no live conn: nothing to drain into
	}
	p.running = true
	if !n.goTracked(func() { n.runSender(p) }) {
		p.running = false
	}
}

// runSender drains one peer's queue: it dials (with backoff) when
// disconnected and an address is known, writes queued envelopes FIFO,
// and exits when the queue is empty or no progress is possible — Send
// and adopt restart it on new work.
func (n *Node) runSender(p *peer) {
	for {
		p.mu.Lock()
		if n.stopping() || len(p.queue) == 0 || (p.cur == nil && p.addr == "") {
			p.running = false
			p.mu.Unlock()
			return
		}
		wc := p.cur
		var env *Envelope
		if wc != nil {
			env = p.queue[0]
			p.queue[0] = nil
			p.queue = p.queue[1:]
		}
		p.mu.Unlock()

		if wc == nil {
			n.dialPeer(p)
			continue
		}
		size, err := wc.writeEnvelope(env, n.maxFrame)
		if err != nil && !isFrameViolation(err) && n.requeue(p, wc, env) {
			continue
		}
		if err != nil {
			// The envelope is lost (lossy contract) and the stream is
			// unusable; recycle the connection and let the loop redial.
			n.dropConn(p, wc.gen)
			wc.c.Close()
			n.tracer.TransportEvent(obsv.TransportSendDrop)
			if isFrameViolation(err) {
				n.tracer.TransportEvent(obsv.TransportFrameReject)
			}
			continue
		}
		if env.Msg != nil {
			n.tracer.MsgSent(n.Now(), env.From, p.id, env.Msg, size)
		}
	}
}

// requeue puts env back at the head of p's queue when its write failed
// on a connection that is no longer p's current one — retired by a
// tie-break or unlinked by its read loop. A failed write never completes
// a frame, so the envelope goes out exactly once, on the replacement.
func (n *Node) requeue(p *peer, wc *wireConn, env *Envelope) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == wc || (p.cur == nil && p.addr == "") {
		return false
	}
	p.queue = append([]*Envelope{env}, p.queue...)
	return true
}

// dialPeer attempts one connection to p off the hot path. The dialer
// says hello, and the connection becomes p's lane when the acceptor's
// hello comes back (see install), under the same tie-break an inbound
// connection gets, so a dial racing the peer's dial converges instead of
// fighting. On failure it sleeps the jittered backoff.
func (n *Node) dialPeer(p *peer) {
	c, err := n.dial(p.addr, dialTimeout)
	if err != nil {
		n.dialFailed(p)
		return
	}
	wc := n.newWireConn(c, false)
	if wc == nil {
		c.Close()
		return
	}
	wc.peer = p.id
	wc.hasPeer = true
	// Identify ourselves before any protocol traffic so the acceptor can
	// adopt this socket as its return path to us.
	if _, err := wc.writeEnvelope(&Envelope{From: n.id}, n.maxFrame); err != nil {
		n.removeOpen(wc)
		wc.c.Close()
		n.dialFailed(p)
		return
	}
	p.mu.Lock()
	reconnect := p.connected
	p.mu.Unlock()
	if !n.goTracked(func() { n.readLoop(wc) }) {
		wc.c.Close()
		return
	}
	t := time.NewTimer(dialTimeout)
	defer t.Stop()
	select {
	case <-wc.settled:
	case <-t.C:
		wc.c.Close() // no answer: its read loop detaches it
	case <-n.done:
		return
	}
	p.mu.Lock()
	installed, other := p.cur == wc, p.cur != nil
	p.mu.Unlock()
	switch {
	case installed && reconnect:
		n.tracer.TransportEvent(obsv.TransportReconnect)
	case installed:
		n.tracer.TransportEvent(obsv.TransportDial)
	case !other:
		// Something accepted the socket but closed it or never answered
		// (a relay whose far side is down, a peer shutting down). The
		// path may heal at any moment, so retry at the base backoff
		// instead of escalating it as for a refused connect.
		p.mu.Lock()
		p.dialFails = 0
		p.mu.Unlock()
		n.dialFailed(p)
	}
}

// dialFailed counts a failed dial and sleeps its backoff (cut short by
// Stop).
func (n *Node) dialFailed(p *peer) {
	n.tracer.TransportEvent(obsv.TransportDialFail)
	p.mu.Lock()
	p.dialFails++
	d := backoffDelay(p.rng, p.dialFails)
	p.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-n.done:
	}
}

// dropConn unlinks the peer's current connection only if it still is
// gen — a failing send can never evict the newer replacement that a
// reconnect installed while the failure was in flight.
func (n *Node) dropConn(p *peer, gen uint64) {
	p.mu.Lock()
	if p.cur != nil && p.cur.gen == gen {
		p.cur = nil
		n.tracer.TransportEvent(obsv.TransportConnDrop)
	}
	p.mu.Unlock()
}

// backoffDelay is the jittered exponential reconnect delay after `fails`
// consecutive dial failures: base·2^(fails−1) capped at backoffMax, then
// spread over [0.5×, 1.5×) so peers don't redial in lockstep.
func backoffDelay(rng *rand.Rand, fails int) time.Duration {
	d := backoffBase
	for i := 1; i < fails && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}

// Do runs fn on the event loop, serialized with message delivery and
// timer callbacks. Replica and client state is single-threaded by
// design (the simulator guarantees it; this loop recreates the
// guarantee over TCP), so any external goroutine — a client main, a
// test — must reach the handler through here, never by calling it
// directly.
func (n *Node) Do(fn func()) {
	select {
	case n.events <- fn:
	case <-n.done:
	}
}

// --- core.Driver ---

// Now implements core.Driver (elapsed wall-clock time).
func (n *Node) Now() time.Duration { return time.Since(n.start) }

// Rand implements core.Driver.
func (n *Node) Rand() *rand.Rand { return n.rng }

// After implements core.Driver: the callback is serialized through the
// event loop like every other event.
func (n *Node) After(d time.Duration, fn func()) func() {
	t := time.AfterFunc(d, func() {
		select {
		case n.events <- fn:
		case <-n.done:
		}
	})
	return func() { t.Stop() }
}

// Send implements core.Driver: best-effort delivery over a persistent
// connection. It never blocks and never dials — the envelope joins the
// peer's queue and the sender drains it, so one unreachable peer cannot
// head-of-line-block traffic to the others. Messages are dropped when
// the peer is unknown, the queue overflows, or the connection dies
// mid-write; the network is allowed to be lossy and the protocols are
// built for that.
func (n *Node) Send(from, to types.NodeID, m types.Message) {
	if n.stopping() {
		return
	}
	if to == n.id {
		// Local loopback: no socket, but the same event-loop delivery and
		// accounting (sized as the wire would have sized it).
		size := obsv.SizeOf(m) + frameHeaderLen
		n.tracer.MsgSent(n.Now(), from, to, m, size)
		n.tracer.MsgDelivered(n.Now(), from, to, m, size)
		select {
		case n.events <- func() { n.handler.Deliver(from, m) }:
		case <-n.done:
		}
		return
	}
	p := n.lookupPeer(to)
	if p == nil {
		if _, ok := n.peers[to]; !ok {
			// Unknown peer with no adopted connection: undeliverable.
			n.tracer.TransportEvent(obsv.TransportSendDrop)
			return
		}
		p = n.ensurePeer(to)
	}
	env := &Envelope{From: from, Msg: m}
	p.mu.Lock()
	if p.cur == nil && p.addr == "" {
		// The adopted connection this peer arrived on is gone and there
		// is no address to redial; queuing would only hold stale replies.
		p.mu.Unlock()
		n.tracer.TransportEvent(obsv.TransportSendDrop)
		return
	}
	if len(p.queue) >= n.queueCap {
		p.queue[0] = nil
		p.queue = p.queue[1:]
		n.tracer.TransportEvent(obsv.TransportSendDrop)
	}
	p.queue = append(p.queue, env)
	n.tracer.ObserveOutQueueDepth(len(p.queue))
	n.startSenderLocked(p)
	p.mu.Unlock()
}

// PeerStatus is one peer lane's live state, for ops surfaces and tests.
type PeerStatus struct {
	Peer      types.NodeID
	Addr      string
	Connected bool
	Gen       uint64       // current connection's generation (when connected)
	DialedBy  types.NodeID // which side dialed the current connection
	QueueLen  int
}

// PeerStatuses snapshots every peer lane, sorted by peer ID.
func (n *Node) PeerStatuses() []PeerStatus {
	n.mu.Lock()
	ps := make([]*peer, 0, len(n.peerSt))
	for _, p := range n.peerSt {
		ps = append(ps, p)
	}
	n.mu.Unlock()
	out := make([]PeerStatus, 0, len(ps))
	for _, p := range ps {
		p.mu.Lock()
		st := PeerStatus{Peer: p.id, Addr: p.addr, QueueLen: len(p.queue)}
		if p.cur != nil {
			st.Connected = true
			st.Gen = p.cur.gen
			st.DialedBy = p.cur.dialer
		}
		p.mu.Unlock()
		out = append(out, st)
	}
	sortPeerStatuses(out)
	return out
}

// PeerStatus returns one peer's lane state and whether the lane exists.
func (n *Node) PeerStatus(id types.NodeID) (PeerStatus, bool) {
	for _, st := range n.PeerStatuses() {
		if st.Peer == id {
			return st, true
		}
	}
	return PeerStatus{}, false
}

func sortPeerStatuses(s []PeerStatus) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Peer < s[j-1].Peer; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ParsePeers parses "0=host:port,1=host:port,..." into a peer table.
func ParsePeers(s string) (map[types.NodeID]string, error) {
	peers := make(map[types.NodeID]string)
	if s == "" {
		return nil, fmt.Errorf("empty peer table")
	}
	for _, part := range splitNonEmpty(s, ',') {
		var id int
		var addr string
		if _, err := fmt.Sscanf(part, "%d=%s", &id, &addr); err != nil {
			return nil, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		peers[types.NodeID(id)] = addr
	}
	return peers, nil
}

func splitNonEmpty(s string, sep byte) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == sep {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
