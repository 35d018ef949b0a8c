package main

import (
	"crypto/ed25519"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/crypto/vpool"
	"bftkit/internal/obsv"
	"bftkit/internal/transport"
	"bftkit/internal/types"
)

// The traced build wraps each layer's public seam with the types below.
// Every wrapper forwards each call, argument and return value unchanged
// and records a span around it while recording is on. Spans on a node's
// event loop nest: a span opened inside another (an inline verify inside
// a delivery) names it as parent, so self time is the span's duration
// minus its children's.

// spanOp is the seam a span was recorded at.
type spanOp uint8

const (
	opSubmit  spanOp = iota // client.Submit, on the session's event loop
	opDeliver               // transport.Handler.Deliver into core
	opTimer                 // a core.Driver.After callback firing
	opVerify                // crypto.Engine.VerifySig (inline, on the loop)
	opApply                 // core.Application.Apply into kvstore
	opPrepare               // the inbound-verify lane hook (off the loop)
	numOps
)

var opNames = [numOps]string{"client.submit", "core.deliver", "core.timer", "crypto.verify", "kvstore.apply", "transport.prepare"}

// spanKey is the identifier spans of one request share: a request key
// (client, client seq) from obsv.Keyed messages, or a slot (view, seq)
// from obsv.Slotted ones. Child spans inherit their parent's.
type spanKey struct {
	slot bool
	a, b uint64
}

func requestKey(k types.RequestKey) spanKey {
	return spanKey{a: uint64(k.Client), b: k.ClientSeq}
}

func messageKey(m types.Message) spanKey {
	if k, ok := m.(obsv.Keyed); ok {
		return requestKey(k.RequestRef())
	}
	if s, ok := m.(obsv.Slotted); ok {
		v, seq := s.Slot()
		return spanKey{slot: true, a: uint64(v), b: uint64(seq)}
	}
	return spanKey{}
}

type span struct {
	start, end int64 // ns since the tracing epoch
	parent     int32 // index in the same buffer, -1 for none
	op         spanOp
	kind       string // message kind for deliveries and lane spans, a fixed label otherwise
	key        spanKey
}

// tracing holds everything one traced cluster records.
type tracing struct {
	epoch time.Time
	on    atomic.Bool // spans and counts are recorded only while on

	mu    sync.Mutex
	nodes []*nodeTrace
	slots []slotRecord // replica 0's commits while on

	slotsCommitted atomic.Int64 // commits across replicas while on
	reqsCommitted  atomic.Int64
	viewChanges    atomic.Int64 // over the cluster's whole life
}

type slotRecord struct {
	view types.View
	seq  types.SeqNum
	keys []types.RequestKey
}

func newTracing(epoch time.Time) *tracing { return &tracing{epoch: epoch} }

// nodeTrace is one node's span buffers and counters.
type nodeTrace struct {
	tr     *tracing
	id     types.NodeID
	obs    *obsv.Tracer
	auth   *crypto.Authority
	engine *vpool.Engine // nil on clients

	mu    sync.Mutex
	loop  []span // event-loop spans, nested through cur
	cur   int32
	lane  []span // inbound-verify lane spans, concurrent, never nested
	waits []float64

	timers, sends, replies atomic.Int64
}

func (t *tracing) addNode(id types.NodeID, auth *crypto.Authority, engine *vpool.Engine) *nodeTrace {
	nt := &nodeTrace{tr: t, id: id, auth: auth, engine: engine, cur: -1,
		obs: obsv.New(obsv.Options{Label: id.String()})}
	t.mu.Lock()
	t.nodes = append(t.nodes, nt)
	t.mu.Unlock()
	return nt
}

func (t *tracing) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens an event-loop span and makes it the parent of spans opened
// before its end. It returns -1, recording nothing, while tracing is off.
func (nt *nodeTrace) begin(op spanOp, kind string, key spanKey) int32 {
	if !nt.tr.on.Load() {
		return -1
	}
	start := nt.tr.now()
	nt.mu.Lock()
	defer nt.mu.Unlock()
	i := int32(len(nt.loop))
	if nt.cur >= 0 && key == (spanKey{}) {
		key = nt.loop[nt.cur].key
	}
	nt.loop = append(nt.loop, span{start: start, end: -1, parent: nt.cur, op: op, kind: kind, key: key})
	nt.cur = i
	return i
}

func (nt *nodeTrace) end(i int32) {
	if i < 0 {
		return
	}
	end := nt.tr.now()
	nt.mu.Lock()
	nt.loop[i].end = end
	nt.cur = nt.loop[i].parent
	nt.mu.Unlock()
}

// laneSpan records one completed off-loop span.
func (nt *nodeTrace) laneSpan(op spanOp, kind string, key spanKey, start int64) {
	end := nt.tr.now()
	nt.mu.Lock()
	nt.lane = append(nt.lane, span{start: start, end: end, parent: -1, op: op, kind: kind, key: key})
	nt.mu.Unlock()
}

func (nt *nodeTrace) count(c *atomic.Int64) {
	if nt.tr.on.Load() {
		c.Add(1)
	}
}

// handlerTap wraps the transport.Handler (a *core.Replica or *core.Client).
type handlerTap struct {
	inner transport.Handler
	nt    *nodeTrace
}

func (h *handlerTap) Deliver(from types.NodeID, m types.Message) {
	if _, ok := m.(*core.ReplyMsg); ok {
		h.nt.count(&h.nt.replies)
	}
	i := h.nt.begin(opDeliver, m.Kind(), messageKey(m))
	h.inner.Deliver(from, m)
	h.nt.end(i)
}

// driverTap wraps the core.Driver (a *transport.Node) handed to
// core.NewReplica and core.NewClient.
type driverTap struct {
	inner core.Driver
	nt    *nodeTrace
}

func (d *driverTap) Now() time.Duration { return d.inner.Now() }
func (d *driverTap) Rand() *rand.Rand   { return d.inner.Rand() }

func (d *driverTap) Send(from, to types.NodeID, m types.Message) {
	d.nt.count(&d.nt.sends)
	d.inner.Send(from, to, m)
}

func (d *driverTap) After(dur time.Duration, fn func()) func() {
	d.nt.count(&d.nt.timers)
	return d.inner.After(dur, func() {
		i := d.nt.begin(opTimer, "timer", spanKey{})
		fn()
		d.nt.end(i)
	})
}

// engineTap wraps the crypto.Engine (a *vpool.Engine) installed with
// Authority.SetEngine. Signing has no seam (crypto.Signer is a concrete
// type), so its time stays in the self time of whatever span signs.
type engineTap struct {
	inner crypto.Engine
	nt    *nodeTrace
}

func (e *engineTap) VerifySig(pub ed25519.PublicKey, signer types.NodeID, d types.Digest, sig []byte) bool {
	i := e.nt.begin(opVerify, "sig", spanKey{})
	ok := e.inner.VerifySig(pub, signer, d, sig)
	e.nt.end(i)
	return ok
}

func (e *engineTap) CertCached(d types.Digest, signers []types.NodeID) bool {
	return e.inner.CertCached(d, signers)
}

func (e *engineTap) CertStore(d types.Digest, signers []types.NodeID) { e.inner.CertStore(d, signers) }

// appTap wraps the core.Application (a *kvstore.Store).
type appTap struct {
	inner core.Application
	nt    *nodeTrace
}

func (a *appTap) Apply(op []byte) []byte {
	i := a.nt.begin(opApply, "apply", spanKey{})
	res := a.inner.Apply(op)
	a.nt.end(i)
	return res
}

func (a *appTap) SpecApply(op []byte) ([]byte, int) { return a.inner.SpecApply(op) }
func (a *appTap) Rollback(targetDepth int)          { a.inner.Rollback(targetDepth) }
func (a *appTap) Promote(oldest int)                { a.inner.Promote(oldest) }
func (a *appTap) SpecDepth() int                    { return a.inner.SpecDepth() }
func (a *appTap) Snapshot() []byte                  { return a.inner.Snapshot() }
func (a *appTap) Restore(snap []byte) error         { return a.inner.Restore(snap) }
func (a *appTap) Hash() types.Digest                { return a.inner.Hash() }

// prepareTap wraps the transport's inbound-prepare hook, which runs on
// per-connection lane goroutines off the event loop.
func prepareTap(inner func(types.NodeID, types.Message), nt *nodeTrace) func(types.NodeID, types.Message) {
	return func(from types.NodeID, m types.Message) {
		if !nt.tr.on.Load() {
			inner(from, m)
			return
		}
		start := nt.tr.now()
		inner(from, m)
		nt.laneSpan(opPrepare, m.Kind(), messageKey(m), start)
	}
}

// onCommit is core.Hooks.OnCommit: it counts slots and requests and maps
// each of replica 0's slots to its request keys, tying slot-keyed spans to
// request-keyed ones.
func (t *tracing) onCommit(id types.NodeID, v types.View, seq types.SeqNum, b *types.Batch, _ *types.CommitProof, _ time.Duration) {
	if !t.on.Load() {
		return
	}
	t.slotsCommitted.Add(1)
	t.reqsCommitted.Add(int64(b.Len()))
	if id != 0 {
		return
	}
	rec := slotRecord{view: v, seq: seq, keys: make([]types.RequestKey, len(b.Requests))}
	for i, r := range b.Requests {
		rec.keys[i] = r.Key()
	}
	t.mu.Lock()
	t.slots = append(t.slots, rec)
	t.mu.Unlock()
}

// onViewChange is core.Hooks.OnViewChange.
func (t *tracing) onViewChange(types.NodeID, types.View, time.Duration) { t.viewChanges.Add(1) }

// probe samples event-loop queue wait: how long a no-op handed to
// Node.Do waits before the loop runs it. It stops when stop closes.
func (nt *nodeTrace) probe(node *transport.Node, stop <-chan struct{}) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		t0 := time.Now()
		ran := make(chan struct{})
		node.Do(func() {
			w := float64(time.Since(t0)) / 1e3
			nt.mu.Lock()
			nt.waits = append(nt.waits, w)
			nt.mu.Unlock()
			close(ran)
		})
		select {
		case <-ran:
		case <-stop:
			return
		}
	}
}
