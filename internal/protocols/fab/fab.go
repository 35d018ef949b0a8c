// Package fab implements a FaB-Paxos-style protocol [140], design choice
// 2 (phase reduction through redundancy): with 5f+1 replicas, consensus
// commits in two ordering phases — the leader's proposal plus a single
// all-to-all accept round with a 4f+1 quorum — instead of PBFT's three.
// The paper's §2.3 notes the matching 5f−1 lower bound for two-step
// Byzantine consensus [7, 123]; Profile.Validate enforces it.
package fab

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

// ProposeMsg is the leader's proposal (phase 1, linear).
type ProposeMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Sig    []byte
}

// Kind implements types.Message.
func (*ProposeMsg) Kind() string { return "FAB-PROPOSE" }

// Slot implements obsv.Slotted.
func (m *ProposeMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *ProposeMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("fab-propose").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the leader's signature, which
// receivers verify against the sender.
func (m *ProposeMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// AcceptMsg is a replica's accept, broadcast to everyone (phase 2,
// quadratic — the phase FaB pays replicas to keep).
type AcceptMsg struct {
	View    types.View
	Seq     types.SeqNum
	Digest  types.Digest
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (*AcceptMsg) Kind() string { return "FAB-ACCEPT" }

// Slot implements obsv.Slotted.
func (m *AcceptMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *AcceptMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("fab-accept").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest).U64(uint64(m.Replica))
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the accepter's signature, which
// receivers verify against the sender.
func (m *AcceptMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// ViewChangeMsg carries accepted slots into the next view.
type ViewChangeMsg struct {
	NewView types.View
	Base    types.SeqNum
	// Committed carries retained committed slots with their proofs so
	// lagging replicas catch up across the view change.
	Committed []CommittedSlot
	Accepted  []AcceptedSlot
	Replica   types.NodeID
	Sig       []byte
}

// CommittedSlot is a slot with its commit proof.
type CommittedSlot struct {
	View   types.View
	Seq    types.SeqNum
	Batch  *types.Batch
	Voters []types.NodeID
}

// AcceptedSlot is a slot this replica accepted.
type AcceptedSlot struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
}

// Kind implements types.Message.
func (*ViewChangeMsg) Kind() string { return "FAB-VIEW-CHANGE" }

// SigDigest is the signed content.
func (m *ViewChangeMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("fab-vc").U64(uint64(m.NewView)).U64(uint64(m.Base)).U64(uint64(m.Replica))
	for _, s := range m.Committed {
		h.U64(uint64(s.Seq)).Digest(s.Batch.Digest())
	}
	for _, s := range m.Accepted {
		h.U64(uint64(s.Seq)).Digest(s.Digest)
	}
	return h.Sum()
}

// NewViewMsg installs a view.
type NewViewMsg struct {
	View types.View
	// Base is the highest sequence number committed somewhere; the new
	// leader assigns fresh numbers strictly above it.
	Base        types.SeqNum
	ViewChanges []*ViewChangeMsg
	Committed   []CommittedSlot
	Proposals   []*ProposeMsg
	Sig         []byte
}

// Kind implements types.Message.
func (*NewViewMsg) Kind() string { return "FAB-NEW-VIEW" }

// SigDigest is the signed content.
func (m *NewViewMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("fab-nv").U64(uint64(m.View)).U64(uint64(m.Base))
	for _, s := range m.Committed {
		h.U64(uint64(s.Seq))
	}
	for _, p := range m.Proposals {
		h.U64(uint64(p.Seq)).Digest(p.Digest)
	}
	return h.Sum()
}

type slot struct {
	digest   types.Digest
	batch    *types.Batch
	proposed bool
	accepted bool
	accepts  map[types.NodeID]bool
	done     bool
}

// FaB is the protocol state machine for one replica.
type FaB struct {
	env core.Env
	cm  *core.CheckpointManager

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

// New returns a FaB replica.
func New(cfg core.Config) core.Protocol { return &FaB{} }

func init() {
	core.Register(core.Registration{
		Name:       "fab",
		Profile:    core.FaBProfile(),
		NewReplica: New,
	})
}

// Init implements core.Protocol.
func (f *FaB) Init(env core.Env) {
	f.env = env
	f.cm = core.NewCheckpointManager(env)
	f.slots = make(map[types.SeqNum]*slot)
	f.pool = core.NewMempool()
	f.watch = make(map[types.RequestKey]bool)
	f.vcs = make(map[types.View]map[types.NodeID]*ViewChangeMsg)
	f.sentNewView = make(map[types.View]bool)
}

// View returns the current view.
func (f *FaB) View() types.View { return f.view }

// commitQuorum is FaB's 4f+1 (the price of losing a phase).
func (f *FaB) commitQuorum() int { return 4*f.env.F() + 1 }

// vcQuorum is n−f view-change messages.
func (f *FaB) vcQuorum() int { return f.env.N() - f.env.F() }

func (f *FaB) leader() types.NodeID { return f.env.Config().LeaderOf(f.view) }
func (f *FaB) isLeader() bool       { return f.leader() == f.env.ID() }

func (f *FaB) armProgress() {
	if f.progressArmed || f.inViewChange {
		return
	}
	f.progressArmed = true
	f.env.SetTimer(core.TimerID{Name: timerProgress, View: f.view}, f.env.Config().ViewChangeTimeout)
}

func (f *FaB) disarmProgress() {
	f.progressArmed = false
	f.env.StopTimer(core.TimerID{Name: timerProgress, View: f.view})
}

func (f *FaB) slot(seq types.SeqNum) *slot {
	sl := f.slots[seq]
	if sl == nil {
		sl = &slot{accepts: make(map[types.NodeID]bool)}
		f.slots[seq] = sl
	}
	return sl
}

// OnRequest implements core.Protocol.
func (f *FaB) OnRequest(req *types.Request) {
	if f.pool.Done(req.Key()) {
		return
	}
	if !f.env.Verifier().VerifySig(req.Client, req.Digest(), req.Sig) {
		return
	}
	key := req.Key()
	f.watch[key] = true
	f.armProgress()
	added := f.pool.Add(req)
	if !f.isLeader() {
		f.env.Send(f.leader(), &core.ForwardMsg{Req: req})
	} else if added {
		f.maybePropose()
	}
}

func (f *FaB) maybePropose() {
	if !f.isLeader() || f.inViewChange {
		return
	}
	for {
		reqs := f.pool.Take(f.env.Config().BatchSize)
		if len(reqs) == 0 {
			return
		}
		batch := types.NewBatch(reqs...)
		f.nextSeq++
		pm := &ProposeMsg{View: f.view, Seq: f.nextSeq, Digest: batch.Digest(), Batch: batch}
		pm.Sig = f.env.Signer().Sign(pm.SigDigest())
		f.env.Broadcast(pm)
		f.acceptPropose(pm)
	}
}

func (f *FaB) acceptPropose(m *ProposeMsg) {
	if m.View != f.view || f.inViewChange {
		return
	}
	if m.Batch.Digest() != m.Digest {
		return
	}
	sl := f.slot(m.Seq)
	if sl.proposed && sl.digest != m.Digest {
		f.startViewChange(f.view + 1)
		return
	}
	sl.proposed = true
	sl.digest = m.Digest
	sl.batch = m.Batch
	for _, r := range m.Batch.Requests {
		f.watch[r.Key()] = true
		f.pool.Claim(r.Key())
	}
	f.armProgress()
	if !sl.accepted {
		sl.accepted = true
		am := &AcceptMsg{View: m.View, Seq: m.Seq, Digest: m.Digest, Replica: f.env.ID()}
		am.Sig = f.env.Signer().Sign(am.SigDigest())
		f.env.Broadcast(am)
		sl.accepts[f.env.ID()] = true
	}
	f.checkCommit(m.Seq, sl)
}

// OnMessage implements core.Protocol.
func (f *FaB) OnMessage(from types.NodeID, m types.Message) {
	if f.cm.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		f.OnRequest(mm.Req)
	case *ProposeMsg:
		if from != f.env.Config().LeaderOf(mm.View) {
			return
		}
		if !f.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		f.acceptPropose(mm)
	case *AcceptMsg:
		if mm.Replica != from || mm.View != f.view || f.inViewChange {
			return
		}
		if !f.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		sl := f.slot(mm.Seq)
		if sl.proposed && sl.digest != mm.Digest {
			return
		}
		sl.accepts[from] = true
		f.checkCommit(mm.Seq, sl)
	case *ViewChangeMsg:
		f.onViewChange(from, mm)
	case *NewViewMsg:
		f.onNewView(from, mm)
	}
}

// checkCommit fires on 4f+1 matching accepts: two phases total.
func (f *FaB) checkCommit(seq types.SeqNum, sl *slot) {
	if sl.done || !sl.proposed {
		return
	}
	if len(sl.accepts) < f.commitQuorum() {
		return
	}
	sl.done = true
	proof := &types.CommitProof{View: f.view, Seq: seq, Digest: sl.digest}
	for id := range sl.accepts {
		proof.Voters = append(proof.Voters, id)
	}
	f.env.Commit(f.view, seq, sl.batch, proof)
}

// OnTimer implements core.Protocol.
func (f *FaB) OnTimer(id core.TimerID) {
	switch id.Name {
	case timerProgress:
		f.progressArmed = false
		if id.View == f.view && len(f.watch) > 0 {
			f.startViewChange(f.view + 1)
		}
	case timerVCRetry:
		if f.inViewChange && id.View == f.targetView {
			f.startViewChange(f.targetView + 1)
		}
	}
}

// OnExecuted implements core.Protocol.
func (f *FaB) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	for i, req := range batch.Requests {
		delete(f.watch, req.Key())
		f.pool.Executed(req.Key())
		f.env.Reply(&types.Reply{
			Client:    req.Client,
			ClientSeq: req.ClientSeq,
			View:      f.view,
			Seq:       seq,
			Result:    results[i],
		})
	}
	delete(f.slots, seq)
	if f.nextSeq < seq {
		f.nextSeq = seq
	}
	f.cm.OnExecuted(seq)
	f.disarmProgress()
	if len(f.watch) > 0 {
		f.armProgress()
	}
	f.maybePropose()
}
