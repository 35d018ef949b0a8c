// Package cheapbft implements a CheapBFT-style protocol [112], design
// choice 5 (optimistic replica reduction): only 2f+1 *active* replicas
// run agreement, optimistically assuming none of them is faulty
// (assumption a2); the remaining f replicas stay *passive* and merely
// receive state updates for committed batches. Because the quorum is all
// 2f+1 active replicas, a single silent active replica stalls the fast
// protocol; the fallback is a view change that rotates the active set
// (the composite-agreement switch of the original paper, folded into the
// leader-change machinery). n stays 3f+1.
//
// The original CheapBFT needs trusted counters (CASH) to make 2f+1-replica
// agreement safe against equivocation; our substitution (DESIGN.md) keeps
// the full 3f+1 deployment and rotates which 2f+1 replicas are active, so
// safety rests on standard quorum intersection across view changes while
// preserving the measured property the paper cares about: f fewer
// replicas do agreement work in the fault-free case.
package cheapbft

import (
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Timer names.
const (
	timerProgress = "progress"
	timerVCRetry  = "vc-retry"
)

// ProposeMsg is the leader's assignment to the active set.
type ProposeMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Sig    []byte
}

// Kind implements types.Message.
func (*ProposeMsg) Kind() string { return "CHEAP-PROPOSE" }

// Slot implements obsv.Slotted.
func (m *ProposeMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *ProposeMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("cheap-propose").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the leader's signature, which
// receivers verify against the sender.
func (m *ProposeMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// VoteMsg is an active replica's accept, broadcast within the active set.
type VoteMsg struct {
	View    types.View
	Seq     types.SeqNum
	Digest  types.Digest
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (*VoteMsg) Kind() string { return "CHEAP-VOTE" }

// Slot implements obsv.Slotted.
func (m *VoteMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *VoteMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("cheap-vote").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest).U64(uint64(m.Replica))
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the voter's signature, which
// receivers verify against the sender.
func (m *VoteMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// UpdateMsg ships a committed batch to the passive replicas.
type UpdateMsg struct {
	View   types.View
	Seq    types.SeqNum
	Batch  *types.Batch
	Voters []types.NodeID
	Sig    []byte
}

// Kind implements types.Message.
func (*UpdateMsg) Kind() string { return "CHEAP-UPDATE" }

// Slot implements obsv.Slotted.
func (m *UpdateMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *UpdateMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("cheap-update").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Batch.Digest())
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the active replica's signature
// on the shipped batch, which passive receivers verify against the sender.
func (m *UpdateMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// ViewChangeMsg rotates the active set (and the leader).
type ViewChangeMsg struct {
	NewView types.View
	Base    types.SeqNum
	// Committed carries retained committed slots so lagging replicas
	// catch up across the rotation.
	Committed []CommittedSlot
	// Prepared carries slots the sender voted for but did not commit.
	Prepared []PreparedSlot
	Replica  types.NodeID
	Sig      []byte
}

// CommittedSlot is a slot with its commit proof.
type CommittedSlot struct {
	View   types.View
	Seq    types.SeqNum
	Batch  *types.Batch
	Voters []types.NodeID
}

// PreparedSlot is a voted-but-uncommitted slot.
type PreparedSlot struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
}

// Kind implements types.Message.
func (*ViewChangeMsg) Kind() string { return "CHEAP-VIEW-CHANGE" }

// SigDigest is the signed content.
func (m *ViewChangeMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("cheap-vc").U64(uint64(m.NewView)).U64(uint64(m.Base)).U64(uint64(m.Replica))
	for _, s := range m.Committed {
		h.U64(uint64(s.Seq)).Digest(s.Batch.Digest())
	}
	for _, s := range m.Prepared {
		h.U64(uint64(s.Seq)).Digest(s.Digest)
	}
	return h.Sum()
}

// NewViewMsg installs the rotated configuration.
type NewViewMsg struct {
	View types.View
	// Base is the highest sequence number committed somewhere; fresh
	// assignments start strictly above it.
	Base        types.SeqNum
	ViewChanges []*ViewChangeMsg
	Committed   []CommittedSlot
	Proposals   []*ProposeMsg
	Sig         []byte
}

// Kind implements types.Message.
func (*NewViewMsg) Kind() string { return "CHEAP-NEW-VIEW" }

// SigDigest is the signed content.
func (m *NewViewMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("cheap-nv").U64(uint64(m.View)).U64(uint64(m.Base))
	for _, p := range m.Proposals {
		h.U64(uint64(p.Seq)).Digest(p.Digest)
	}
	for _, s := range m.Committed {
		h.U64(uint64(s.Seq))
	}
	return h.Sum()
}

// Options tunes a CheapBFT replica.
type Options struct {
	// SilentActive withholds votes while active (forces the fallback).
	SilentActive bool
}

type slot struct {
	digest   types.Digest
	batch    *types.Batch
	proposed bool
	votes    map[types.NodeID][]byte
	voted    bool
	done     bool
}

// CheapBFT is the protocol state machine for one replica.
type CheapBFT struct {
	env  core.Env
	opts Options
	cm   *core.CheckpointManager

	view    types.View
	nextSeq types.SeqNum
	slots   map[types.SeqNum]*slot

	pool          *core.Mempool
	watch         map[types.RequestKey]bool
	progressArmed bool

	inViewChange bool
	targetView   types.View
	vcs          map[types.View]map[types.NodeID]*ViewChangeMsg
	sentNewView  map[types.View]bool
}

// New returns a CheapBFT replica.
func New(cfg core.Config) core.Protocol { return NewWithOptions(cfg, Options{}) }

// NewWithOptions returns a replica with explicit options.
func NewWithOptions(_ core.Config, opts Options) core.Protocol { return &CheapBFT{opts: opts} }

func init() {
	core.Register(core.Registration{
		Name:       "cheapbft",
		Profile:    core.CheapBFTProfile(),
		NewReplica: New,
	})
}

// Init implements core.Protocol.
func (c *CheapBFT) Init(env core.Env) {
	c.env = env
	c.cm = core.NewCheckpointManager(env)
	c.slots = make(map[types.SeqNum]*slot)
	c.pool = core.NewMempool()
	c.watch = make(map[types.RequestKey]bool)
	c.vcs = make(map[types.View]map[types.NodeID]*ViewChangeMsg)
	c.sentNewView = make(map[types.View]bool)
}

// View returns the current view.
func (c *CheapBFT) View() types.View { return c.view }

func (c *CheapBFT) leader() types.NodeID { return c.env.Config().LeaderOf(c.view) }
func (c *CheapBFT) isLeader() bool       { return c.leader() == c.env.ID() }

// ActiveSet returns the 2f+1 active replicas of a view: the leader and
// the next 2f replicas in ring order (rotating the view rotates the set,
// which is how a faulty active replica eventually gets benched).
func (c *CheapBFT) ActiveSet(v types.View) []types.NodeID {
	n := c.env.N()
	k := 2*c.env.F() + 1
	out := make([]types.NodeID, 0, k)
	lead := uint64(v) % uint64(n)
	for i := 0; i < k; i++ {
		out = append(out, types.NodeID((lead+uint64(i))%uint64(n)))
	}
	return out
}

// IsActive reports whether id is active in view v.
func (c *CheapBFT) IsActive(v types.View, id types.NodeID) bool {
	for _, a := range c.ActiveSet(v) {
		if a == id {
			return true
		}
	}
	return false
}

func (c *CheapBFT) broadcastActive(v types.View, m types.Message) {
	for _, id := range c.ActiveSet(v) {
		if id != c.env.ID() {
			c.env.Send(id, m)
		}
	}
}

func (c *CheapBFT) armProgress() {
	if c.progressArmed || c.inViewChange {
		return
	}
	c.progressArmed = true
	c.env.SetTimer(core.TimerID{Name: timerProgress, View: c.view}, c.env.Config().ViewChangeTimeout)
}

func (c *CheapBFT) disarmProgress() {
	c.progressArmed = false
	c.env.StopTimer(core.TimerID{Name: timerProgress, View: c.view})
}

func (c *CheapBFT) slot(seq types.SeqNum) *slot {
	sl := c.slots[seq]
	if sl == nil {
		sl = &slot{votes: make(map[types.NodeID][]byte)}
		c.slots[seq] = sl
	}
	return sl
}

// OnRequest implements core.Protocol.
func (c *CheapBFT) OnRequest(req *types.Request) {
	if c.pool.Done(req.Key()) {
		return
	}
	if !c.env.Verifier().VerifySig(req.Client, req.Digest(), req.Sig) {
		return
	}
	key := req.Key()
	c.watch[key] = true
	c.armProgress()
	added := c.pool.Add(req)
	if !c.isLeader() {
		c.env.Send(c.leader(), &core.ForwardMsg{Req: req})
	} else if added {
		c.maybePropose()
	}
}

func (c *CheapBFT) maybePropose() {
	if !c.isLeader() || c.inViewChange {
		return
	}
	for {
		reqs := c.pool.Take(c.env.Config().BatchSize)
		if len(reqs) == 0 {
			return
		}
		batch := types.NewBatch(reqs...)
		c.nextSeq++
		pm := &ProposeMsg{View: c.view, Seq: c.nextSeq, Digest: batch.Digest(), Batch: batch}
		pm.Sig = c.env.Signer().Sign(pm.SigDigest())
		c.broadcastActive(c.view, pm)
		c.acceptPropose(pm)
	}
}

func (c *CheapBFT) acceptPropose(m *ProposeMsg) {
	if m.View != c.view || c.inViewChange || !c.IsActive(c.view, c.env.ID()) {
		return
	}
	if m.Batch.Digest() != m.Digest {
		return
	}
	sl := c.slot(m.Seq)
	if sl.proposed && sl.digest != m.Digest {
		c.startViewChange(c.view + 1)
		return
	}
	sl.proposed = true
	sl.digest = m.Digest
	sl.batch = m.Batch
	for _, r := range m.Batch.Requests {
		c.watch[r.Key()] = true
		c.pool.Claim(r.Key())
	}
	c.armProgress()
	if !sl.voted && !c.opts.SilentActive {
		sl.voted = true
		vm := &VoteMsg{View: m.View, Seq: m.Seq, Digest: m.Digest, Replica: c.env.ID()}
		vm.Sig = c.env.Signer().Sign(vm.SigDigest())
		c.broadcastActive(c.view, vm)
		sl.votes[c.env.ID()] = vm.Sig
	}
	c.checkCommit(m.Seq, sl)
}

// OnMessage implements core.Protocol.
func (c *CheapBFT) OnMessage(from types.NodeID, m types.Message) {
	if c.cm.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		c.OnRequest(mm.Req)
	case *ProposeMsg:
		if from != c.env.Config().LeaderOf(mm.View) {
			return
		}
		if !c.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		c.acceptPropose(mm)
	case *VoteMsg:
		if mm.Replica != from || mm.View != c.view || c.inViewChange {
			return
		}
		if !c.IsActive(mm.View, from) || !c.IsActive(mm.View, c.env.ID()) {
			return
		}
		if !c.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		sl := c.slot(mm.Seq)
		if sl.proposed && sl.digest != mm.Digest {
			return
		}
		sl.votes[from] = mm.Sig
		c.checkCommit(mm.Seq, sl)
	case *UpdateMsg:
		c.onUpdate(from, mm)
	case *ViewChangeMsg:
		c.onViewChange(from, mm)
	case *NewViewMsg:
		c.onNewView(from, mm)
	}
}

// checkCommit fires when ALL 2f+1 active replicas voted — the whole
// point of DC5: the quorum is the entire active set.
func (c *CheapBFT) checkCommit(seq types.SeqNum, sl *slot) {
	if sl.done || !sl.proposed {
		return
	}
	if len(sl.votes) < 2*c.env.F()+1 {
		return
	}
	sl.done = true
	proof := &types.CommitProof{View: c.view, Seq: seq, Digest: sl.digest}
	for id := range sl.votes {
		proof.Voters = append(proof.Voters, id)
	}
	c.env.Commit(c.view, seq, sl.batch, proof)
	// The leader informs the passive replicas.
	if c.isLeader() {
		up := &UpdateMsg{View: c.view, Seq: seq, Batch: sl.batch, Voters: proof.Voters}
		up.Sig = c.env.Signer().Sign(up.SigDigest())
		for _, id := range c.env.Replicas() {
			if !c.IsActive(c.view, id) {
				c.env.Send(id, up)
			}
		}
	}
}

// onUpdate lets passive replicas apply committed batches.
func (c *CheapBFT) onUpdate(from types.NodeID, m *UpdateMsg) {
	if from != c.env.Config().LeaderOf(m.View) {
		return
	}
	if !c.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	proof := &types.CommitProof{View: m.View, Seq: m.Seq, Digest: m.Batch.Digest(),
		Voters: append([]types.NodeID(nil), m.Voters...)}
	c.env.Commit(m.View, m.Seq, m.Batch, proof)
}

// OnTimer implements core.Protocol.
func (c *CheapBFT) OnTimer(id core.TimerID) {
	switch id.Name {
	case timerProgress:
		c.progressArmed = false
		if id.View == c.view && len(c.watch) > 0 {
			c.startViewChange(c.view + 1)
		}
	case timerVCRetry:
		if c.inViewChange && id.View == c.targetView {
			c.startViewChange(c.targetView + 1)
		}
	}
}

// OnExecuted implements core.Protocol.
func (c *CheapBFT) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	for i, req := range batch.Requests {
		delete(c.watch, req.Key())
		c.pool.Executed(req.Key())
		// Only active replicas answer clients in CheapBFT.
		if c.IsActive(c.view, c.env.ID()) {
			c.env.Reply(&types.Reply{
				Client:    req.Client,
				ClientSeq: req.ClientSeq,
				View:      c.view,
				Seq:       seq,
				Result:    results[i],
			})
		}
	}
	delete(c.slots, seq)
	if c.nextSeq < seq {
		c.nextSeq = seq
	}
	c.cm.OnExecuted(seq)
	c.disarmProgress()
	if len(c.watch) > 0 {
		c.armProgress()
	}
	c.maybePropose()
}
