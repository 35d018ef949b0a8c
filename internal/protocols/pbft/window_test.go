package pbft_test

import (
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/sim"
	"bftkit/internal/types"
)

// slotSizes records how many requests each slot replica 0 executed.
type slotSizes struct{ sizes []int }

func (o *slotSizes) OnExecute(id types.NodeID, _ types.SeqNum, b *types.Batch, _ [][]byte, _ time.Duration) {
	if id == 0 {
		o.sizes = append(o.sizes, len(b.Requests))
	}
}
func (*slotSizes) OnCommit(types.NodeID, types.View, types.SeqNum, *types.Batch, *types.CommitProof, time.Duration) {
}
func (*slotSizes) OnViewChange(types.NodeID, types.View, time.Duration)       {}
func (*slotSizes) OnViolation(types.NodeID, error)                            {}
func (*slotSizes) OnDone(types.NodeID, *types.Request, []byte, time.Duration) {}

// windowProbe wraps the view-0 leader and records the largest window
// occupancy it ever reaches after handling an event.
type windowProbe struct {
	*pbft.PBFT
	max int
}

func (w *windowProbe) note() { w.max = max(w.max, w.InFlightSlots()) }
func (w *windowProbe) OnRequest(r *types.Request) {
	w.PBFT.OnRequest(r)
	w.note()
}
func (w *windowProbe) OnMessage(from types.NodeID, m types.Message) {
	w.PBFT.OnMessage(from, m)
	w.note()
}
func (w *windowProbe) OnTimer(id core.TimerID) {
	w.PBFT.OnTimer(id)
	w.note()
}
func (w *windowProbe) OnExecuted(seq types.SeqNum, b *types.Batch, res [][]byte) {
	w.PBFT.OnExecuted(seq, b, res)
	w.note()
}

// TestWindowBatchesBacklog: 16 closed-loop clients keep a backlog at the
// leader, so the window fills, the leader never runs more than the
// window's slots, and the freed slots carry several requests each.
func TestWindowBatchesBacklog(t *testing.T) {
	probe := &windowProbe{}
	sizes := &slotSizes{}
	c := harness.NewCluster(harness.Options{
		Protocol: "pbft", N: 4, Clients: 16,
		MakeReplica: func(id types.NodeID, cfg core.Config) core.Protocol {
			if id != 0 {
				return nil
			}
			probe.PBFT = pbft.New(cfg).(*pbft.PBFT)
			return probe
		},
		Observers: []harness.Observer{sizes},
	})
	c.Start()
	c.ClosedLoop(20, op)
	c.RunUntilIdle(30 * time.Second)
	if got, want := c.Metrics.Completed, 16*20; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
	if probe.max > pbft.Window {
		t.Fatalf("leader had %d slots in flight, window is %d", probe.max, pbft.Window)
	}
	if probe.max < pbft.Window {
		t.Fatalf("leader never filled its window (max %d in flight): the backlog test is vacuous", probe.max)
	}
	reqs := 0
	for _, n := range sizes.sizes {
		reqs += n
		if n > pbft.MaxBatch {
			t.Fatalf("a slot carried %d requests, above maxBatch %d", n, pbft.MaxBatch)
		}
	}
	if mean := float64(reqs) / float64(len(sizes.sizes)); mean <= 1 {
		t.Fatalf("mean %.2f requests per slot over %d slots, want > 1", mean, len(sizes.sizes))
	}
}

// parentOneClientMeanLatency is the mean virtual commit latency of the
// run below before the window existed. One outstanding request never
// fills the window, so the window must not move it by a nanosecond.
const parentOneClientMeanLatency = 5447765 * time.Nanosecond

// TestWindowLeavesOneClientUnchanged: a lone closed-loop client puts one
// request in every slot, at the unwindowed protocol's exact latency.
func TestWindowLeavesOneClientUnchanged(t *testing.T) {
	sizes := &slotSizes{}
	c := harness.NewCluster(harness.Options{
		Protocol: "pbft", N: 4, Clients: 1,
		Observers: []harness.Observer{sizes},
	})
	c.Start()
	c.ClosedLoop(40, op)
	c.RunUntilIdle(20 * time.Second)
	if got, want := c.Metrics.Completed, 40; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	for i, n := range sizes.sizes {
		if n != 1 {
			t.Fatalf("slot %d carried %d requests, want 1", i+1, n)
		}
	}
	var sum time.Duration
	for _, l := range c.Metrics.Latencies {
		sum += l
	}
	if mean := sum / time.Duration(len(c.Metrics.Latencies)); mean != parentOneClientMeanLatency {
		t.Fatalf("mean virtual latency %v, want %v", mean, parentOneClientMeanLatency)
	}
}

// dropOldProposals drops every pre-prepare sent in a view below until.
// Nothing ordered in those views prepares anywhere, so each one ends in
// a view change that abandons its slots.
type dropOldProposals struct {
	until types.View
	// first is the lowest sequence number proposed in view until.
	first types.SeqNum
}

func (d *dropOldProposals) OnSend(_, _ types.NodeID, m types.Message) sim.Action {
	pp, ok := m.(*pbft.PrePrepareMsg)
	if !ok {
		return sim.Action{}
	}
	if pp.View < d.until {
		return sim.Action{Drop: true}
	}
	if pp.View == d.until && (d.first == 0 || pp.Seq < d.first) {
		d.first = pp.Seq
	}
	return sim.Action{}
}

// TestNewViewRenumbersAbandonedSlots: the leaders of views 0–4 each
// sequence slots that nobody prepares. Replica 1 leads views 1 and 5, so
// it enters view 5 having numbered slots the view-change quorum never
// saw. It must propose at maxS+1 (here 1), not above a hole no replica
// fills, and the cluster must finish in view 5 with no further view
// change.
func TestNewViewRenumbersAbandonedSlots(t *testing.T) {
	const target = types.View(5)
	drop := &dropOldProposals{until: target}
	c := harness.NewCluster(harness.Options{Protocol: "pbft", N: 4, Clients: 2})
	c.Net.SetInterceptor(drop)
	c.Start()
	c.ClosedLoop(5, op)
	c.RunUntilIdle(60 * time.Second)
	if got, want := c.Metrics.Completed, 10; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
	if drop.first != 1 {
		t.Fatalf("view %d's leader first proposed seq %d, want 1 (maxS+1)", target, drop.first)
	}
	for id, vs := range c.Metrics.ViewChanges {
		if len(vs) == 0 || vs[len(vs)-1] != target {
			t.Fatalf("replica %v view history %v, want it to end at view %d", id, vs, target)
		}
	}
}
