// Package poe implements a Proof-of-Execution-style protocol [103],
// design choice 7 (speculative phase reduction): a linear protocol in
// which the leader collects signed shares from only 2f+1 replicas, then
// broadcasts the resulting certificate; replicas execute *speculatively*
// upon the certificate and answer clients, who accept on 2f+1 matching
// speculative replies. Compared with SBFT's fast path (DC6, all 3f+1
// shares), PoE stays responsive — it never waits for the slowest f
// replicas — but buys that with possible rollback: if a view change
// reveals that the certificate's quorum was partly Byzantine and a
// different order survives, speculatively executed slots are undone
// through the runtime's undo log.
//
// Durable commitment happens lazily at checkpoint windows, where replicas
// exchange history digests (as in our Zyzzyva implementation).
package poe

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

// ProposeMsg is the leader's assignment (phase 1, linear).
type ProposeMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Sig    []byte
}

// Kind implements types.Message.
func (*ProposeMsg) Kind() string { return "POE-PROPOSE" }

// Slot implements obsv.Slotted.
func (m *ProposeMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *ProposeMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("poe-propose").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the leader's signature, which
// receivers verify against the sender.
func (m *ProposeMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

func shareDigest(v types.View, seq types.SeqNum, d types.Digest) types.Digest {
	var h types.Hasher
	h.Str("poe-share").U64(uint64(v)).U64(uint64(seq)).Digest(d)
	return h.Sum()
}

// ShareMsg is a replica's signed accept, sent to the collector.
type ShareMsg struct {
	View    types.View
	Seq     types.SeqNum
	Digest  types.Digest
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (*ShareMsg) Kind() string { return "POE-SHARE" }

// Slot implements obsv.Slotted.
func (m *ShareMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigClaims implements crypto.SigClaimer: the share signature, which
// the collector verifies against the sender.
func (m *ShareMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: shareDigest(m.View, m.Seq, m.Digest), Sig: m.Sig}}
}

// CertifyMsg broadcasts the 2f+1 certificate; replicas execute
// speculatively on receipt (phase 3, linear).
type CertifyMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Cert   *crypto.Certificate
	Sig    []byte
}

// Kind implements types.Message.
func (*CertifyMsg) Kind() string { return "POE-CERTIFY" }

// Slot implements obsv.Slotted.
func (m *CertifyMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// EncodedSize implements sim.Sizer (threshold certificates stay constant).
func (m *CertifyMsg) EncodedSize() int {
	size := 64 + crypto.SigSize
	if m.Cert != nil {
		size += m.Cert.EncodedSize()
	}
	return size
}

// SigDigest is the signed content.
func (m *CertifyMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("poe-certify").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the collector's signature,
// which receivers verify against the sender.
func (m *CertifyMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// CheckpointMsg exchanges history digests for lazy durable commitment.
type CheckpointMsg struct {
	Seq     types.SeqNum
	History types.Digest
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (*CheckpointMsg) Kind() string { return "POE-CHECKPOINT" }

// SigDigest is the signed content.
func (m *CheckpointMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("poe-cp").U64(uint64(m.Seq)).Digest(m.History).U64(uint64(m.Replica))
	return h.Sum()
}

// ViewChangeMsg ships certified slots into the next view.
type ViewChangeMsg struct {
	NewView types.View
	Base    types.SeqNum
	// Committed carries retained committed slots with their proofs.
	Committed []CommittedSlot
	Slots     []CertifiedSlot
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

// CertifiedSlot is a slot with its 2f+1 certificate.
type CertifiedSlot struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Cert   *crypto.Certificate
}

// Kind implements types.Message.
func (*ViewChangeMsg) Kind() string { return "POE-VIEW-CHANGE" }

// SigDigest is the signed content.
func (m *ViewChangeMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("poe-vc").U64(uint64(m.NewView)).U64(uint64(m.Base)).U64(uint64(m.Replica))
	for _, s := range m.Committed {
		h.U64(uint64(s.Seq))
	}
	for _, s := range m.Slots {
		h.U64(uint64(s.Seq)).Digest(s.Digest)
	}
	return h.Sum()
}

// NewViewMsg installs a view.
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
func (*NewViewMsg) Kind() string { return "POE-NEW-VIEW" }

// SigDigest is the signed content.
func (m *NewViewMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("poe-nv").U64(uint64(m.View)).U64(uint64(m.Base))
	for _, s := range m.Committed {
		h.U64(uint64(s.Seq))
	}
	for _, p := range m.Proposals {
		h.U64(uint64(p.Seq)).Digest(p.Digest)
	}
	return h.Sum()
}

// Options tunes a PoE replica.
type Options struct {
	// SilentLeader drops client requests (attack injection).
	SilentLeader bool
}

type slot struct {
	digest   types.Digest
	batch    *types.Batch
	proposed bool
	signed   bool
	shares   map[types.NodeID][]byte
	cert     *crypto.Certificate
	executed bool
}

// PoE is the protocol state machine for one replica.
type PoE struct {
	env  core.Env
	opts Options

	view    types.View
	nextSeq types.SeqNum
	slots   map[types.SeqNum]*slot
	// ready buffers certified slots awaiting contiguous speculative
	// execution.
	ready map[types.SeqNum]*CertifyMsg

	pool          *core.Mempool
	watch         map[types.RequestKey]bool
	progressArmed bool

	cpVotes map[types.SeqNum]map[types.NodeID]types.Digest

	inViewChange bool
	targetView   types.View
	vcs          map[types.View]map[types.NodeID]*ViewChangeMsg
	sentNewView  map[types.View]bool
}

// New returns a PoE replica.
func New(cfg core.Config) core.Protocol { return NewWithOptions(cfg, Options{}) }

// NewWithOptions returns a replica with explicit options.
func NewWithOptions(_ core.Config, opts Options) core.Protocol { return &PoE{opts: opts} }

func init() {
	core.Register(core.Registration{
		Name:       "poe",
		Profile:    core.PoEProfile(),
		NewReplica: New,
	})
}

// Init implements core.Protocol.
func (p *PoE) Init(env core.Env) {
	p.env = env
	p.slots = make(map[types.SeqNum]*slot)
	p.ready = make(map[types.SeqNum]*CertifyMsg)
	p.pool = core.NewMempool()
	p.watch = make(map[types.RequestKey]bool)
	p.cpVotes = make(map[types.SeqNum]map[types.NodeID]types.Digest)
	p.vcs = make(map[types.View]map[types.NodeID]*ViewChangeMsg)
	p.sentNewView = make(map[types.View]bool)
}

// View returns the current view.
func (p *PoE) View() types.View { return p.view }

func (p *PoE) leader() types.NodeID { return p.env.Config().LeaderOf(p.view) }
func (p *PoE) isLeader() bool       { return p.leader() == p.env.ID() }

func (p *PoE) armProgress() {
	if p.progressArmed || p.inViewChange {
		return
	}
	p.progressArmed = true
	p.env.SetTimer(core.TimerID{Name: timerProgress, View: p.view}, p.env.Config().ViewChangeTimeout)
}

func (p *PoE) disarmProgress() {
	p.progressArmed = false
	p.env.StopTimer(core.TimerID{Name: timerProgress, View: p.view})
}

func (p *PoE) slot(seq types.SeqNum) *slot {
	sl := p.slots[seq]
	if sl == nil {
		sl = &slot{shares: make(map[types.NodeID][]byte)}
		p.slots[seq] = sl
	}
	return sl
}

// OnRequest implements core.Protocol.
func (p *PoE) OnRequest(req *types.Request) {
	if p.pool.Done(req.Key()) {
		return
	}
	if !p.env.Verifier().VerifySig(req.Client, req.Digest(), req.Sig) {
		return
	}
	key := req.Key()
	p.watch[key] = true
	p.armProgress()
	added := p.pool.Add(req)
	if !p.isLeader() {
		p.env.Send(p.leader(), &core.ForwardMsg{Req: req})
	} else if added && !p.opts.SilentLeader {
		p.maybePropose()
	}
}

func (p *PoE) maybePropose() {
	if !p.isLeader() || p.inViewChange {
		return
	}
	for {
		reqs := p.pool.Take(p.env.Config().BatchSize)
		if len(reqs) == 0 {
			return
		}
		batch := types.NewBatch(reqs...)
		p.nextSeq++
		pm := &ProposeMsg{View: p.view, Seq: p.nextSeq, Digest: batch.Digest(), Batch: batch}
		pm.Sig = p.env.Signer().Sign(pm.SigDigest())
		p.env.Broadcast(pm)
		p.acceptPropose(pm)
	}
}

func (p *PoE) acceptPropose(m *ProposeMsg) {
	if m.View != p.view || p.inViewChange {
		return
	}
	if m.Batch.Digest() != m.Digest {
		return
	}
	sl := p.slot(m.Seq)
	if sl.proposed && sl.digest != m.Digest {
		p.startViewChange(p.view + 1)
		return
	}
	sl.proposed = true
	sl.digest = m.Digest
	sl.batch = m.Batch
	for _, r := range m.Batch.Requests {
		p.watch[r.Key()] = true
		p.pool.Claim(r.Key())
	}
	p.armProgress()
	if !sl.signed {
		sl.signed = true
		sd := shareDigest(m.View, m.Seq, m.Digest)
		share := &ShareMsg{View: m.View, Seq: m.Seq, Digest: m.Digest,
			Replica: p.env.ID(), Sig: p.env.Signer().Sign(sd)}
		if p.isLeader() {
			p.onShare(p.env.ID(), share)
		} else {
			p.env.Send(p.leader(), share)
		}
	}
}

// OnMessage implements core.Protocol.
func (p *PoE) OnMessage(from types.NodeID, m types.Message) {
	switch mm := m.(type) {
	case *core.ForwardMsg:
		p.OnRequest(mm.Req)
	case *ProposeMsg:
		if from != p.env.Config().LeaderOf(mm.View) {
			return
		}
		if !p.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		p.acceptPropose(mm)
	case *ShareMsg:
		if mm.Replica != from {
			return
		}
		if !p.env.Verifier().VerifySig(from, shareDigest(mm.View, mm.Seq, mm.Digest), mm.Sig) {
			return
		}
		p.onShare(from, mm)
	case *CertifyMsg:
		if from != p.env.Config().LeaderOf(mm.View) {
			return
		}
		if !p.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		p.onCertify(mm)
	case *CheckpointMsg:
		if mm.Replica != from {
			return
		}
		if !p.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		p.recordCheckpoint(from, mm)
	case *ViewChangeMsg:
		p.onViewChange(from, mm)
	case *NewViewMsg:
		p.onNewView(from, mm)
	}
}

func (p *PoE) onShare(from types.NodeID, m *ShareMsg) {
	if !p.isLeader() || m.View != p.view || p.inViewChange {
		return
	}
	sl := p.slot(m.Seq)
	if sl.proposed && sl.digest != m.Digest {
		return
	}
	sl.shares[from] = m.Sig
	if len(sl.shares) >= p.env.Config().Quorum() && sl.cert == nil {
		cert := &crypto.Certificate{
			Digest:    shareDigest(m.View, m.Seq, m.Digest),
			Threshold: p.env.Scheme() == crypto.SchemeThreshold,
		}
		for id, sig := range sl.shares {
			cert.Add(id, sig)
		}
		sl.cert = cert
		cm := &CertifyMsg{View: m.View, Seq: m.Seq, Digest: m.Digest, Cert: cert}
		cm.Sig = p.env.Signer().Sign(cm.SigDigest())
		p.env.Broadcast(cm)
		p.onCertify(cm)
	}
}

// onCertify speculatively executes certified slots in sequence order.
func (p *PoE) onCertify(m *CertifyMsg) {
	if m.View != p.view || p.inViewChange {
		return
	}
	want := shareDigest(m.View, m.Seq, m.Digest)
	if m.Cert == nil || m.Cert.Digest != want ||
		m.Cert.Verify(p.env.Verifier(), p.env.Config().Quorum()) != nil {
		return
	}
	sl := p.slot(m.Seq)
	if !sl.proposed || sl.digest != m.Digest || sl.executed {
		if !sl.proposed {
			p.ready[m.Seq] = m // batch not here yet
		}
		return
	}
	sl.cert = m.Cert
	p.ready[m.Seq] = m
	p.drainReady()
}

func (p *PoE) drainReady() {
	for {
		next := p.specTip() + 1
		m, ok := p.ready[next]
		if !ok {
			return
		}
		sl := p.slot(next)
		if !sl.proposed || sl.digest != m.Digest {
			return
		}
		delete(p.ready, next)
		results := p.env.SpecExecute(next, sl.batch)
		if results == nil {
			continue
		}
		sl.executed = true
		p.disarmProgress()
		for i, req := range sl.batch.Requests {
			p.env.Reply(&types.Reply{
				Client:      req.Client,
				ClientSeq:   req.ClientSeq,
				View:        m.View,
				Seq:         next,
				Result:      results[i],
				Speculative: true,
				History:     p.env.HistoryDigest(),
			})
		}
		if len(p.watch) > 0 {
			p.armProgress()
		}
		iv := p.env.Config().CheckpointInterval
		if iv > 0 && uint64(next)%iv == 0 {
			cp := &CheckpointMsg{Seq: next, History: p.env.HistoryDigest(), Replica: p.env.ID()}
			cp.Sig = p.env.Signer().Sign(cp.SigDigest())
			p.env.Broadcast(cp)
			p.recordCheckpoint(p.env.ID(), cp)
		}
	}
}

func (p *PoE) specTip() types.SeqNum {
	tip := p.env.Ledger().LastExecuted()
	for seq, sl := range p.slots {
		if sl.executed && seq > tip {
			tip = seq
		}
	}
	return tip
}

func (p *PoE) recordCheckpoint(from types.NodeID, m *CheckpointMsg) {
	set := p.cpVotes[m.Seq]
	if set == nil {
		set = make(map[types.NodeID]types.Digest)
		p.cpVotes[m.Seq] = set
	}
	set[from] = m.History
	counts := make(map[types.Digest][]types.NodeID)
	for id, h := range set {
		counts[h] = append(counts[h], id)
	}
	for h, voters := range counts {
		if len(voters) < p.env.Config().Quorum() {
			continue
		}
		if p.specTip() < m.Seq || h != p.env.HistoryDigest() {
			continue
		}
		// Durably commit the prefix.
		for s := p.env.Ledger().LastExecuted() + 1; s <= m.Seq; s++ {
			sl := p.slots[s]
			if sl == nil || !sl.executed {
				break
			}
			proof := &types.CommitProof{View: p.view, Seq: s, Digest: sl.digest,
				Voters: append([]types.NodeID(nil), voters...)}
			p.env.Commit(p.view, s, sl.batch, proof)
		}
		delete(p.cpVotes, m.Seq)
		return
	}
}

// OnTimer implements core.Protocol.
func (p *PoE) OnTimer(id core.TimerID) {
	switch id.Name {
	case timerProgress:
		p.progressArmed = false
		if id.View == p.view && len(p.watch) > 0 {
			p.startViewChange(p.view + 1)
		}
	case timerVCRetry:
		if p.inViewChange && id.View == p.targetView {
			p.startViewChange(p.targetView + 1)
		}
	}
}

// OnExecuted implements core.Protocol (commit-path execution).
func (p *PoE) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	for i, req := range batch.Requests {
		delete(p.watch, req.Key())
		p.pool.Executed(req.Key())
		p.env.Reply(&types.Reply{
			Client:    req.Client,
			ClientSeq: req.ClientSeq,
			View:      p.view,
			Seq:       seq,
			Result:    results[i],
		})
	}
	delete(p.slots, seq)
	delete(p.ready, seq)
	if p.nextSeq < seq {
		p.nextSeq = seq
	}
	p.disarmProgress()
	if len(p.watch) > 0 {
		p.armProgress()
	}
	p.maybePropose()
}
