package core

import "bftkit/internal/types"

// Mempool is the request pool shared by the leader-based protocols: the
// intake and batching stage every point of the design space reuses. Its
// policy has three rules:
//
//   - a request is admitted once;
//   - it stays queued until it is executed, so a view change cannot lose
//     it;
//   - it is proposed at most once per view, in arrival order.
//
// "In flight" means carried by a proposal of the current view, this
// replica's own (Take) or another's (Claim). Release runs when a new view
// is installed: every proposal of the old view is void, so everything in
// flight becomes proposable again, still in arrival order.
//
// Take costs amortized O(batch): queue[:cursor] holds no proposable
// request, and only Release (which clears every in-flight mark) moves the
// cursor back. Executed requests leave the queue lazily, once they make up
// more than half of it.
type Mempool struct {
	queue    []*types.Request // arrival order, including executed stragglers
	cursor   int
	dead     int // executed requests still in queue
	queued   map[types.RequestKey]bool
	inFlight map[types.RequestKey]bool
	done     map[types.RequestKey]bool
}

// NewMempool returns an empty pool.
func NewMempool() *Mempool {
	return &Mempool{
		queued:   make(map[types.RequestKey]bool),
		inFlight: make(map[types.RequestKey]bool),
		done:     make(map[types.RequestKey]bool),
	}
}

// Add admits req, reporting false if it is already queued or executed.
func (m *Mempool) Add(req *types.Request) bool {
	key := req.Key()
	if m.queued[key] || m.done[key] {
		return false
	}
	m.queued[key] = true
	m.queue = append(m.queue, req)
	return true
}

// Take marks in flight and returns the first k queued requests that are
// not in flight, in arrival order.
func (m *Mempool) Take(k int) []*types.Request {
	var out []*types.Request
	for ; m.cursor < len(m.queue) && len(out) < k; m.cursor++ {
		out = m.pick(out, m.queue[m.cursor], k)
	}
	return out
}

// TakeNewest is Take newest-first: the order a front-running leader
// proposes in.
func (m *Mempool) TakeNewest(k int) []*types.Request {
	var out []*types.Request
	for i := len(m.queue) - 1; i >= 0 && len(out) < k; i-- {
		out = m.pick(out, m.queue[i], k)
	}
	return out
}

// pick appends req to a take of at most k if it is proposable.
func (m *Mempool) pick(out []*types.Request, req *types.Request, k int) []*types.Request {
	key := req.Key()
	if m.done[key] || m.inFlight[key] {
		return out
	}
	m.inFlight[key] = true
	if out == nil {
		out = make([]*types.Request, 0, min(k, m.Len()))
	}
	return append(out, req)
}

// Claim marks a request in flight because a proposal of the current view
// carries it; the request need not have reached this replica yet.
func (m *Mempool) Claim(key types.RequestKey) { m.inFlight[key] = true }

// Executed retires a request for good: later Adds of it are rejected.
func (m *Mempool) Executed(key types.RequestKey) {
	delete(m.inFlight, key)
	m.done[key] = true
	if !m.queued[key] {
		return
	}
	delete(m.queued, key)
	m.dead++
	if 2*m.dead > len(m.queue) {
		m.compact()
	}
}

// compact drops executed requests from the queue, keeping the cursor on
// the same live request.
func (m *Mempool) compact() {
	live, cursor := m.queue[:0], 0
	for i, req := range m.queue {
		if m.done[req.Key()] {
			continue
		}
		if i < m.cursor {
			cursor++
		}
		live = append(live, req)
	}
	clear(m.queue[len(live):])
	m.queue, m.cursor, m.dead = live, cursor, 0
}

// Done reports whether the request has been executed.
func (m *Mempool) Done(key types.RequestKey) bool { return m.done[key] }

// Release voids every in-flight mark, so each queued request can be taken
// again. Call it when a new view (or chain configuration) is installed.
func (m *Mempool) Release() {
	clear(m.inFlight)
	m.cursor = 0
}

// Len is the number of queued requests that have not been executed, in
// flight or not.
func (m *Mempool) Len() int { return len(m.queue) - m.dead }
