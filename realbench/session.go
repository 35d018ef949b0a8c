package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/kvstore"
	"bftkit/internal/transport"
	"bftkit/internal/types"
)

// requestDeadline is how long a request may stay outstanding before it
// counts as failed. The client retransmits every RequestTimeout (500 ms)
// meanwhile, so a clean cluster never comes near it.
const requestDeadline = 5 * time.Second

type completion struct {
	seq    uint64
	result []byte
	at     time.Time
}

type pending struct {
	op     op
	submit time.Duration
	minVer uint32 // a Get must see at least this version (acked before it was sent)
}

// session is one closed-loop load generator: a core.Client on its own
// transport node, driven from one goroutine that keeps Outstanding
// requests in flight and checks every result.
type session struct {
	idx    int
	w      workload
	seed   int64
	epoch  time.Time
	node   *transport.Node
	client *core.Client
	gen    *opGen
	// completed counts valid completions across the cluster's sessions.
	completed *atomic.Int64
	// submit hands a request to the client on its event loop; the traced
	// build wraps it in a span.
	submit func(req *types.Request)

	// done receives OnDone completions. Its buffer holds Outstanding of
	// them, the most a clean run has in flight, so the client's event loop
	// does not wait on this goroutine.
	done   chan completion
	stop   chan struct{}
	exited chan struct{}
	loaded chan struct{} // closed once the preload ops have completed

	// Owned by the run goroutine until exited is closed.
	seq   uint64
	pend  map[uint64]*pending
	acked []uint32
	outs  []outcome
	errs  []string
	nDone int // outcomes recorded, completed or failed
}

func newSession(idx int, w workload, seed int64, epoch time.Time) *session {
	return &session{
		idx:    idx,
		w:      w,
		seed:   seed,
		epoch:  epoch,
		gen:    newOpGen(w, seed, idx),
		done:   make(chan completion, w.Outstanding),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
		loaded: make(chan struct{}),
		pend:   make(map[uint64]*pending),
		acked:  make([]uint32, w.Keys),
	}
}

// onDone is the client's OnDone hook; it runs on the client's event loop.
// Once the run goroutine has exited nothing reads done, and a late
// completion is dropped.
func (s *session) onDone(_ types.NodeID, req *types.Request, result []byte, _ time.Duration) {
	select {
	case s.done <- completion{seq: req.ClientSeq, result: result, at: time.Now()}:
	case <-s.exited:
	}
}

// run is the session's closed loop. After stop is closed it issues
// nothing new and returns once every outstanding request has completed
// or missed its deadline.
func (s *session) run() {
	defer close(s.exited)
	for i := 0; i < s.w.Outstanding; i++ {
		s.issue()
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	stop := s.stop
	stopping := false
	for !stopping || len(s.pend) > 0 {
		select {
		case c := <-s.done:
			if s.complete(c) && !stopping {
				s.issue()
			}
		case <-tick.C:
			for n := s.expire(); n > 0 && !stopping; n-- {
				s.issue()
			}
		case <-stop:
			stopping, stop = true, nil
		}
	}
}

func (s *session) issue() {
	o := s.gen.next()
	s.seq++
	p := &pending{op: o, submit: time.Since(s.epoch)}
	if o.get {
		p.minVer = s.acked[o.key]
	}
	s.pend[s.seq] = p
	s.submit(&types.Request{ClientSeq: s.seq, Op: o.raw, ArrivalHint: int64(s.node.Now())})
}

// complete records one completion and reports whether it freed a slot
// (late completions of already-expired requests do not).
func (s *session) complete(c completion) bool {
	p := s.pend[c.seq]
	if p == nil {
		return false
	}
	delete(s.pend, c.seq)
	out := outcome{submit: p.submit, done: c.at.Sub(s.epoch)}
	if err := s.check(p, c.result); err != nil {
		out.failed = true
		s.errs = append(s.errs, fmt.Sprintf("session %d request %d: %v", s.idx, c.seq, err))
	}
	s.record(out)
	return true
}

func (s *session) record(o outcome) {
	if !o.failed {
		s.completed.Add(1)
	}
	s.outs = append(s.outs, o)
	s.nDone++
	if s.nDone == s.w.preloadOps() {
		close(s.loaded)
	}
}

// check validates a result the client already accepted on f+1 matching
// replies: a Put must say ok; a Get must return exactly a value the
// workload wrote for that key, no older than the last acknowledged Put.
func (s *session) check(p *pending, result []byte) error {
	if !p.op.get {
		if !bytes.Equal(result, kvstore.ResultOK) {
			return fmt.Errorf("put returned %q", result)
		}
		if p.op.ver > s.acked[p.op.key] {
			s.acked[p.op.key] = p.op.ver
		}
		return nil
	}
	key := keyName(s.idx, p.op.key)
	ver, err := parseValue(s.seed, key, s.w.ValueBytes, result)
	if err != nil {
		return err
	}
	if ver < p.minVer || ver > s.gen.issued[p.op.key] {
		return fmt.Errorf("get %s returned version %d, want %d..%d", key, ver, p.minVer, s.gen.issued[p.op.key])
	}
	return nil
}

// expire fails every request past its deadline and returns how many.
func (s *session) expire() int {
	now := time.Since(s.epoch)
	n := 0
	for seq, p := range s.pend {
		if now-p.submit >= requestDeadline {
			delete(s.pend, seq)
			s.record(outcome{submit: p.submit, done: now, failed: true})
			n++
		}
	}
	return n
}
