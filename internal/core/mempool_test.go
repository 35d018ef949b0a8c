package core

import (
	"math/rand"
	"slices"
	"testing"

	"bftkit/internal/types"
)

// refPool is the request pool every leader-based protocol used to carry
// its own copy of: the fields and takePending below are PBFT's, verbatim
// apart from the receiver and frontRun standing in for opts.FrontRun.
type refPool struct {
	pending    []*types.Request
	pendingSet map[types.RequestKey]bool
	inFlight   map[types.RequestKey]bool
	done       map[types.RequestKey]bool
	frontRun   bool
}

func newRefPool() *refPool {
	return &refPool{
		pendingSet: make(map[types.RequestKey]bool),
		inFlight:   make(map[types.RequestKey]bool),
		done:       make(map[types.RequestKey]bool),
	}
}

// add is the admission branch of the old OnRequest.
func (p *refPool) add(req *types.Request) bool {
	key := req.Key()
	if p.done[key] || p.pendingSet[key] {
		return false
	}
	p.pendingSet[key] = true
	p.pending = append(p.pending, req)
	return true
}

func (p *refPool) takePending(k int) []*types.Request {
	live := p.pending[:0]
	for _, req := range p.pending {
		key := req.Key()
		if !p.pendingSet[key] || p.done[req.Key()] {
			continue // executed: drop from the backlog
		}
		live = append(live, req)
	}
	p.pending = live
	var out []*types.Request
	pick := func(req *types.Request) bool {
		key := req.Key()
		if len(out) < k && !p.inFlight[key] {
			p.inFlight[key] = true
			out = append(out, req)
		}
		return len(out) < k
	}
	if p.frontRun {
		for i := len(p.pending) - 1; i >= 0; i-- {
			if !pick(p.pending[i]) {
				break
			}
		}
	} else {
		for _, req := range p.pending {
			if !pick(req) {
				break
			}
		}
	}
	return out
}

// executed is the old OnExecuted bookkeeping.
func (p *refPool) executed(key types.RequestKey) {
	delete(p.pendingSet, key)
	delete(p.inFlight, key)
	p.done[key] = true
}

func poolReq(client, seq int) *types.Request {
	return &types.Request{Client: types.NodeID(client), ClientSeq: uint64(seq)}
}

func keys(reqs []*types.Request) []types.RequestKey {
	out := make([]types.RequestKey, len(reqs))
	for i, r := range reqs {
		out[i] = r.Key()
	}
	return out
}

// TestMempoolMatchesTakePending drives the pool and the code it replaced
// through the same random Add/Take/Claim/Executed/Release sequences:
// every Take must return the same requests in the same order.
func TestMempoolMatchesTakePending(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool, ref := NewMempool(), newRefPool()
		ref.frontRun = seed%4 == 0
		// A small key space makes re-submissions, claims of requests
		// not yet received and re-executions common.
		randReq := func() *types.Request { return poolReq(rng.Intn(3), rng.Intn(40)) }
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op < 8:
				r := randReq()
				if got, want := pool.Add(r), ref.add(r); got != want {
					t.Fatalf("seed %d step %d: Add(%v) = %v, want %v", seed, step, r.Key(), got, want)
				}
			case op < 13:
				k := rng.Intn(6)
				var got []*types.Request
				if ref.frontRun {
					got = pool.TakeNewest(k)
				} else {
					got = pool.Take(k)
				}
				if want := ref.takePending(k); !slices.Equal(keys(got), keys(want)) {
					t.Fatalf("seed %d step %d: Take(%d) = %v, want %v", seed, step, k, keys(got), keys(want))
				}
			case op < 15:
				key := randReq().Key()
				pool.Claim(key)
				ref.inFlight[key] = true
			case op < 19:
				// Mostly requests this replica holds, as execution of
				// a proposal would; sometimes one it never received.
				key := randReq().Key()
				if n := len(ref.pending); n > 0 && rng.Intn(4) > 0 {
					key = ref.pending[rng.Intn(n)].Key()
				}
				pool.Executed(key)
				ref.executed(key)
			default:
				pool.Release()
				ref.inFlight = make(map[types.RequestKey]bool)
			}
			if got, want := pool.Len(), len(ref.pendingSet); got != want {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, got, want)
			}
		}
	}
}

func TestMempoolAdmitsOnce(t *testing.T) {
	m := NewMempool()
	a := poolReq(1, 1)
	if !m.Add(a) {
		t.Fatal("first Add rejected")
	}
	if m.Add(poolReq(1, 1)) {
		t.Fatal("re-submitted request admitted twice")
	}
	if got := m.Take(5); len(got) != 1 {
		t.Fatalf("Take = %v, want the one request", keys(got))
	}
	m.Executed(a.Key())
	if !m.Done(a.Key()) {
		t.Fatal("executed request not Done")
	}
	if m.Add(poolReq(1, 1)) {
		t.Fatal("executed request admitted again")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after execution, want 0", m.Len())
	}
}

// TestMempoolReleaseKeepsArrivalOrder: a view change makes everything in
// flight proposable again, oldest first, and never loses a request.
func TestMempoolReleaseKeepsArrivalOrder(t *testing.T) {
	m := NewMempool()
	for s := 1; s <= 5; s++ {
		m.Add(poolReq(0, s))
	}
	m.Take(2)                    // seq 1, 2
	m.Claim(poolReq(0, 4).Key()) // carried by another replica's proposal
	if got, want := keys(m.Take(5)), keys([]*types.Request{poolReq(0, 3), poolReq(0, 5)}); !slices.Equal(got, want) {
		t.Fatalf("Take = %v, want %v", got, want)
	}
	m.Executed(poolReq(0, 2).Key())
	m.Release()
	want := keys([]*types.Request{poolReq(0, 1), poolReq(0, 3), poolReq(0, 4), poolReq(0, 5)})
	if got := keys(m.Take(10)); !slices.Equal(got, want) {
		t.Fatalf("Take after Release = %v, want %v", got, want)
	}
}

// TestMempoolTakeNewest is the front-running leader's order: newest
// first, skipping what is in flight or executed.
func TestMempoolTakeNewest(t *testing.T) {
	m := NewMempool()
	for s := 1; s <= 5; s++ {
		m.Add(poolReq(0, s))
	}
	m.Executed(poolReq(0, 5).Key())
	m.Claim(poolReq(0, 3).Key())
	want := keys([]*types.Request{poolReq(0, 4), poolReq(0, 2)})
	if got := keys(m.TakeNewest(2)); !slices.Equal(got, want) {
		t.Fatalf("TakeNewest = %v, want %v", got, want)
	}
	if got := keys(m.Take(5)); !slices.Equal(got, keys([]*types.Request{poolReq(0, 1)})) {
		t.Fatalf("Take after TakeNewest = %v, want only seq 1", got)
	}
}
