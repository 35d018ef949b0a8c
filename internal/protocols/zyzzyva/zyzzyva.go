// Package zyzzyva implements Zyzzyva-style speculative BFT [120], design
// choice 8: the leader's order-request is the only ordering phase;
// replicas execute speculatively and answer the client directly, and the
// client is responsible for verifying agreement — 3f+1 matching
// speculative replies complete a request on the fast path. With fewer
// matches the client turns repairer (dimension P6): it assembles a commit
// certificate from 2f+1 matching replies and drives replicas to local
// commit. Replicas otherwise commit lazily at checkpoints by exchanging
// history digests.
//
// Zyzzyva5 (design choice 10) runs the same code with 5f+1 replicas and a
// 4f+1 fast quorum, keeping the fast path alive with up to f faulty
// replicas.
//
// Rollback: a speculative slot that loses a view change is undone through
// the runtime's undo log and re-executed in the decided order; committed
// slots always survive by the f+1-intersection argument on view-change
// quorums.
package zyzzyva

import (
	"fmt"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Timer names.
const (
	timerBatch      = "batch"
	timerProgress   = "progress" // τ2 on replicas
	timerVCRetry    = "vc-retry"
	timerClientWait = "client-wait" // τ1 on clients
)

// OrderReqMsg is the leader's speculative assignment (the single phase).
type OrderReqMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Sig    []byte
}

// Kind implements types.Message.
func (*OrderReqMsg) Kind() string { return "ORDER-REQ" }

// Slot implements obsv.Slotted.
func (m *OrderReqMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *OrderReqMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("zyz-orderreq").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the leader's signature, which
// receivers verify against the sender.
func (m *OrderReqMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// CommitMsg is the repairer client's commit certificate: 2f+1 matching
// speculative replies prove the slot's position in the history.
type CommitMsg struct {
	Client    types.NodeID
	ClientSeq uint64
	Seq       types.SeqNum
	View      types.View
	History   types.Digest
	Result    []byte
	Cert      *crypto.Certificate
}

// Kind implements types.Message.
func (*CommitMsg) Kind() string { return "ZYZ-COMMIT" }

// Slot implements obsv.Slotted.
func (m *CommitMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// RequestRef implements obsv.Keyed.
func (m *CommitMsg) RequestRef() types.RequestKey {
	return types.RequestKey{Client: m.Client, ClientSeq: m.ClientSeq}
}

// LocalCommitMsg acknowledges a commit certificate.
type LocalCommitMsg struct {
	Seq       types.SeqNum
	Client    types.NodeID
	ClientSeq uint64
	Replica   types.NodeID
}

// Kind implements types.Message.
func (*LocalCommitMsg) Kind() string { return "LOCAL-COMMIT" }

// Slot implements obsv.Slotted.
func (m *LocalCommitMsg) Slot() (types.View, types.SeqNum) { return 0, m.Seq }

// RequestRef implements obsv.Keyed.
func (m *LocalCommitMsg) RequestRef() types.RequestKey {
	return types.RequestKey{Client: m.Client, ClientSeq: m.ClientSeq}
}

// CheckpointMsg carries a replica's history digest at a sequence number;
// 2f+1 matching digests commit the prefix (Zyzzyva's lazy commitment).
type CheckpointMsg struct {
	Seq     types.SeqNum
	History types.Digest
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (*CheckpointMsg) Kind() string { return "ZYZ-CHECKPOINT" }

// SigDigest is the signed content.
func (m *CheckpointMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("zyz-cp").U64(uint64(m.Seq)).Digest(m.History).U64(uint64(m.Replica))
	return h.Sum()
}

// ViewChangeMsg carries a replica's speculative history above its commit
// point into the next view.
type ViewChangeMsg struct {
	NewView types.View
	Base    types.SeqNum // last committed (executed) slot at the sender
	// Committed carries retained committed slots with their proofs.
	Committed []CommittedSlot
	// Certs carries client commit certificates this replica received:
	// transferable 2f+1-signed evidence that pins a slot's content
	// regardless of how many view-change senders speculated on it.
	Certs   []*CommitMsg
	Slots   []SpecSlot
	Replica types.NodeID
	Sig     []byte
}

// SpecSlot is one speculatively ordered slot.
type SpecSlot struct {
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
}

// Kind implements types.Message.
func (*ViewChangeMsg) Kind() string { return "ZYZ-VIEW-CHANGE" }

// SigDigest is the signed content.
func (m *ViewChangeMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("zyz-vc").U64(uint64(m.NewView)).U64(uint64(m.Base)).U64(uint64(m.Replica))
	for _, s := range m.Committed {
		h.U64(uint64(s.Seq))
	}
	for _, s := range m.Slots {
		h.U64(uint64(s.Seq)).Digest(s.Digest)
	}
	return h.Sum()
}

// NewViewMsg installs a view with the surviving order.
type NewViewMsg struct {
	View types.View
	// Base is the highest sequence number committed somewhere; fresh
	// assignments start strictly above it.
	Base        types.SeqNum
	ViewChanges []*ViewChangeMsg
	// Committed carries durably committed slots for replicas that are
	// behind the base.
	Committed []CommittedSlot
	OrderReqs []*OrderReqMsg
	Sig       []byte
}

// CommittedSlot is a slot with its commit proof.
type CommittedSlot struct {
	View   types.View
	Seq    types.SeqNum
	Batch  *types.Batch
	Voters []types.NodeID
}

// Kind implements types.Message.
func (*NewViewMsg) Kind() string { return "ZYZ-NEW-VIEW" }

// SigDigest is the signed content.
func (m *NewViewMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("zyz-nv").U64(uint64(m.View)).U64(uint64(m.Base))
	for _, s := range m.Committed {
		h.U64(uint64(s.Seq))
	}
	for _, o := range m.OrderReqs {
		h.U64(uint64(o.Seq)).Digest(o.Digest)
	}
	return h.Sum()
}

// Options tunes a Zyzzyva replica.
type Options struct {
	// Five selects the Zyzzyva5 thresholds (n−f fast path).
	Five bool
	// SilentLeader drops client requests (attack injection).
	SilentLeader bool
	// CorruptBackup makes this backup return wrong results to clients,
	// which must still complete via the commit-certificate path.
	CorruptBackup bool
}

// Zyzzyva is the replica state machine.
type Zyzzyva struct {
	env  core.Env
	opts Options

	view    types.View
	nextSeq types.SeqNum // leader's assignment counter
	// clientCerts retains verified client commit certificates per slot
	// until the slot executes well below the spec horizon.
	clientCerts map[types.SeqNum]*CommitMsg
	// specs holds speculatively executed slots above the commit point.
	specs map[types.SeqNum]*SpecSlot
	// buffered out-of-order order-requests.
	buffer map[types.SeqNum]*OrderReqMsg

	pool  *core.Mempool
	watch map[types.RequestKey]bool

	cpVotes map[types.SeqNum]map[types.NodeID]types.Digest

	progressArmed bool

	inViewChange bool
	targetView   types.View
	vcs          map[types.View]map[types.NodeID]*ViewChangeMsg
	sentNewView  map[types.View]bool
}

// New returns a Zyzzyva replica.
func New(cfg core.Config) core.Protocol { return NewWithOptions(cfg, Options{}) }

// NewWithOptions returns a replica with explicit options.
func NewWithOptions(_ core.Config, opts Options) core.Protocol {
	return &Zyzzyva{opts: opts}
}

func init() {
	core.Register(core.Registration{
		Name:       "zyzzyva",
		Profile:    core.ZyzzyvaProfile(),
		NewReplica: New,
		NewClient: func(cfg core.Config) core.ClientProtocol {
			return NewClient(cfg.N, 2*cfg.F+1)
		},
	})
	core.Register(core.Registration{
		Name:    "zyzzyva5",
		Profile: core.Zyzzyva5Profile(),
		NewReplica: func(cfg core.Config) core.Protocol {
			return NewWithOptions(cfg, Options{Five: true})
		},
		NewClient: func(cfg core.Config) core.ClientProtocol {
			return NewClient(cfg.N-cfg.F, 3*cfg.F+1)
		},
	})
}

// Init implements core.Protocol.
func (z *Zyzzyva) Init(env core.Env) {
	z.env = env
	z.specs = make(map[types.SeqNum]*SpecSlot)
	z.clientCerts = make(map[types.SeqNum]*CommitMsg)
	z.buffer = make(map[types.SeqNum]*OrderReqMsg)
	z.pool = core.NewMempool()
	z.watch = make(map[types.RequestKey]bool)
	z.cpVotes = make(map[types.SeqNum]map[types.NodeID]types.Digest)
	z.vcs = make(map[types.View]map[types.NodeID]*ViewChangeMsg)
	z.sentNewView = make(map[types.View]bool)
}

// View returns the current view.
func (z *Zyzzyva) View() types.View { return z.view }

// DebugState summarizes internal state for tests.
func (z *Zyzzyva) DebugState() string {
	return fmt.Sprintf("view=%d target=%d invc=%v specTip=%d specs=%d buffer=%d pending=%d watch=%d",
		z.view, z.targetView, z.inViewChange, z.specTip(), len(z.specs), len(z.buffer), z.pool.Len(), len(z.watch))
}

func (z *Zyzzyva) leader() types.NodeID { return z.env.Config().LeaderOf(z.view) }
func (z *Zyzzyva) isLeader() bool       { return z.leader() == z.env.ID() }

// armProgress starts the τ2 progress timer if it is not already running.
// Arming is level-triggered, not edge-triggered: fresh requests must not
// keep pushing the deadline out, or a faulty leader would never be
// suspected under continuous load.
func (z *Zyzzyva) armProgress() {
	if z.progressArmed || z.inViewChange {
		return
	}
	z.progressArmed = true
	z.env.SetTimer(core.TimerID{Name: timerProgress, View: z.view}, z.env.Config().ViewChangeTimeout)
}

func (z *Zyzzyva) disarmProgress() {
	z.progressArmed = false
	z.env.StopTimer(core.TimerID{Name: timerProgress, View: z.view})
}

// quorum returns the commit quorum (2f+1, or 3f+1 for Zyzzyva5).
func (z *Zyzzyva) quorum() int {
	if z.opts.Five {
		return 3*z.env.F() + 1
	}
	return z.env.Config().Quorum()
}

// OnRequest implements core.Protocol.
func (z *Zyzzyva) OnRequest(req *types.Request) {
	if z.pool.Done(req.Key()) {
		return
	}
	if !z.env.Verifier().VerifySig(req.Client, req.Digest(), req.Sig) {
		return
	}
	key := req.Key()
	z.watch[key] = true
	z.armProgress()
	added := z.pool.Add(req)
	if !z.isLeader() {
		z.env.Send(z.leader(), &core.ForwardMsg{Req: req})
	} else if added && !z.opts.SilentLeader {
		z.maybePropose()
	}
}

func (z *Zyzzyva) maybePropose() {
	if !z.isLeader() || z.inViewChange {
		return
	}
	for {
		reqs := z.pool.Take(z.env.Config().BatchSize)
		if len(reqs) == 0 {
			return
		}
		batch := types.NewBatch(reqs...)
		z.nextSeq++
		or := &OrderReqMsg{View: z.view, Seq: z.nextSeq, Digest: batch.Digest(), Batch: batch}
		or.Sig = z.env.Signer().Sign(or.SigDigest())
		z.env.Broadcast(or)
		z.acceptOrderReq(or)
	}
}

// acceptOrderReq speculatively executes contiguous assignments and
// answers clients directly (Figure "spec response" path).
func (z *Zyzzyva) acceptOrderReq(or *OrderReqMsg) {
	if or.View != z.view || z.inViewChange {
		return
	}
	if or.Batch.Digest() != or.Digest {
		return
	}
	tip := z.specTip()
	if or.Seq <= tip {
		return // already speculated or executed
	}
	z.buffer[or.Seq] = or
	for {
		next, ok := z.buffer[z.specTip()+1]
		if !ok {
			return
		}
		delete(z.buffer, next.Seq)
		z.execSpeculative(next)
	}
}

func (z *Zyzzyva) specTip() types.SeqNum {
	tip := z.env.Ledger().LastExecuted()
	for seq := range z.specs {
		if seq > tip {
			tip = seq
		}
	}
	return tip
}

func (z *Zyzzyva) execSpeculative(or *OrderReqMsg) {
	results := z.env.SpecExecute(or.Seq, or.Batch)
	if results == nil {
		return
	}
	z.specs[or.Seq] = &SpecSlot{Seq: or.Seq, Digest: or.Digest, Batch: or.Batch}
	z.disarmProgress() // the leader is making progress
	for i, req := range or.Batch.Requests {
		z.watch[req.Key()] = true
		z.pool.Claim(req.Key())
		res := results[i]
		if z.opts.CorruptBackup {
			res = []byte("corrupt")
		}
		z.env.Reply(&types.Reply{
			Client:      req.Client,
			ClientSeq:   req.ClientSeq,
			View:        or.View,
			Seq:         or.Seq,
			Result:      res,
			Speculative: true,
			History:     z.env.HistoryDigest(),
		})
	}
	if len(z.watch) > 0 {
		z.armProgress()
	}
	// Lazy commitment: exchange history digests at checkpoint windows.
	iv := z.env.Config().CheckpointInterval
	if iv > 0 && uint64(or.Seq)%iv == 0 {
		cp := &CheckpointMsg{Seq: or.Seq, History: z.env.HistoryDigest(), Replica: z.env.ID()}
		cp.Sig = z.env.Signer().Sign(cp.SigDigest())
		z.env.Broadcast(cp)
		z.recordCheckpoint(z.env.ID(), cp)
	}
}

// commitPrefix durably commits every speculative slot up to seq.
func (z *Zyzzyva) commitPrefix(seq types.SeqNum, voters []types.NodeID) {
	for s := z.env.Ledger().LastExecuted() + 1; s <= seq; s++ {
		slot := z.specs[s]
		if slot == nil {
			return
		}
		proof := &types.CommitProof{View: z.view, Seq: s, Digest: slot.Digest,
			Voters: append([]types.NodeID(nil), voters...)}
		z.env.Commit(z.view, s, slot.Batch, proof)
		delete(z.specs, s)
	}
}

func (z *Zyzzyva) recordCheckpoint(from types.NodeID, m *CheckpointMsg) {
	set := z.cpVotes[m.Seq]
	if set == nil {
		set = make(map[types.NodeID]types.Digest)
		z.cpVotes[m.Seq] = set
	}
	set[from] = m.History
	counts := make(map[types.Digest][]types.NodeID)
	for id, h := range set {
		counts[h] = append(counts[h], id)
	}
	for h, voters := range counts {
		if len(voters) >= z.quorum() && h == z.historyAt(m.Seq) {
			z.commitPrefix(m.Seq, voters)
			delete(z.cpVotes, m.Seq)
			return
		}
	}
}

// historyAt returns our history digest if our speculative tip is exactly
// seq (the only point at which we can compare).
func (z *Zyzzyva) historyAt(seq types.SeqNum) types.Digest {
	if z.specTip() >= seq {
		return z.env.HistoryDigest() // approximation: tips beyond seq share the prefix
	}
	return types.Digest{0xff}
}

// OnMessage implements core.Protocol.
func (z *Zyzzyva) OnMessage(from types.NodeID, m types.Message) {
	switch mm := m.(type) {
	case *core.ForwardMsg:
		z.OnRequest(mm.Req)
	case *OrderReqMsg:
		if from != z.env.Config().LeaderOf(mm.View) {
			return
		}
		if !z.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		z.acceptOrderReq(mm)
	case *CommitMsg:
		z.onCommitCert(from, mm)
	case *CheckpointMsg:
		if mm.Replica != from {
			return
		}
		if !z.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		z.recordCheckpoint(from, mm)
	case *ViewChangeMsg:
		z.onViewChange(from, mm)
	case *NewViewMsg:
		z.onNewView(from, mm)
	}
}

// onCommitCert handles the repairer client's certificate: 2f+1 matching
// signed speculative replies commit the prefix.
func (z *Zyzzyva) onCommitCert(from types.NodeID, m *CommitMsg) {
	if !z.verifyClientCert(m) {
		return
	}
	z.clientCerts[m.Seq] = m
	// Commit our prefix if we hold the same speculative history.
	if z.specTip() >= m.Seq {
		z.commitPrefix(m.Seq, m.Cert.Signers)
	}
	z.env.Send(from, &LocalCommitMsg{Seq: m.Seq, Client: m.Client, ClientSeq: m.ClientSeq, Replica: z.env.ID()})
}

// verifyClientCert checks a client commit certificate: 2f+1 distinct
// valid signatures over exactly the matching reply digest.
func (z *Zyzzyva) verifyClientCert(m *CommitMsg) bool {
	if m == nil || m.Cert == nil || m.Cert.Size() < z.quorum() {
		return false
	}
	probe := &types.Reply{
		Client: m.Client, ClientSeq: m.ClientSeq, Seq: m.Seq, View: m.View,
		Result: m.Result, Speculative: true, History: m.History,
	}
	if m.Cert.Digest != probe.Digest() {
		return false
	}
	seen := make(map[types.NodeID]bool)
	for i, signer := range m.Cert.Signers {
		if seen[signer] {
			return false
		}
		seen[signer] = true
		if !z.env.Verifier().VerifySig(signer, m.Cert.Digest, m.Cert.Sigs[i]) {
			return false
		}
	}
	return true
}

// OnTimer implements core.Protocol.
func (z *Zyzzyva) OnTimer(id core.TimerID) {
	switch id.Name {
	case timerProgress:
		z.progressArmed = false
		if id.View == z.view && len(z.watch) > 0 {
			z.startViewChange(z.view + 1)
		}
	case timerVCRetry:
		if z.inViewChange && id.View == z.targetView {
			z.startViewChange(z.targetView + 1)
		}
	}
}

// OnExecuted implements core.Protocol: commit-path execution (promoted
// speculative slots or re-executed decided batches).
func (z *Zyzzyva) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	for i, req := range batch.Requests {
		delete(z.watch, req.Key())
		z.pool.Executed(req.Key())
		// A committed (non-speculative) reply: lets clients finish with
		// f+1 matches when the fast path fell apart (e.g. after a view
		// change re-executed the slot).
		z.env.Reply(&types.Reply{
			Client:    req.Client,
			ClientSeq: req.ClientSeq,
			View:      z.view,
			Seq:       seq,
			Result:    results[i],
		})
	}
	delete(z.specs, seq)
	for cs := range z.clientCerts {
		if cs+64 < seq {
			delete(z.clientCerts, cs)
		}
	}
	if z.nextSeq < seq {
		z.nextSeq = seq
	}
	z.disarmProgress()
	if len(z.watch) > 0 {
		z.armProgress()
	}
	z.maybePropose()
}
