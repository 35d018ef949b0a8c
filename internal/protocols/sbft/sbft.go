// Package sbft implements an SBFT-style protocol [101]: PBFT linearized
// through a collector (design choice 1) with an optimistic fast path
// (design choice 6). The leader broadcasts a pre-prepare, replicas return
// signed shares to the leader (collector), and:
//
//   - fast path: if ALL 3f+1 shares arrive before the backup-failure
//     timer τ3 fires, the leader broadcasts a full-commit proof and
//     replicas commit immediately — two linear phases are skipped;
//   - slow path: when τ3 fires with at least a 2f+1 quorum, the leader
//     broadcasts a prepare proof, collects commit shares, and broadcasts
//     a commit proof — the linearized equivalent of PBFT's prepare and
//     commit phases.
//
// Quorum proofs are certificates that become constant-size under the
// threshold-signature model (DC 11). Waiting for all replicas costs
// responsiveness: fast-path latency depends on the slowest replica and on
// τ3, exactly the trade-off dimension E4 describes.
package sbft

import (
	"time"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Timer names.
const (
	timerBatch    = "batch"
	timerFastPath = "fastpath" // τ3: detecting backup failures
	timerProgress = "progress" // τ2: trigger view change
	timerVCRetry  = "vc-retry"
)

// PrePrepareMsg is the leader's proposal (phase 1, linear).
type PrePrepareMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Sig    []byte
}

// Kind implements types.Message.
func (*PrePrepareMsg) Kind() string { return "SBFT-PRE-PREPARE" }

// Slot implements obsv.Slotted.
func (m *PrePrepareMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *PrePrepareMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("sbft-preprepare").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the leader's signature, which
// receivers verify against the sender.
func (m *PrePrepareMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// shareDigest is what replicas sign when accepting an assignment.
func shareDigest(stage string, v types.View, seq types.SeqNum, d types.Digest) types.Digest {
	var h types.Hasher
	h.Str("sbft-share").Str(stage).U64(uint64(v)).U64(uint64(seq)).Digest(d)
	return h.Sum()
}

// ShareMsg carries one replica's signed share to the collector (phase 2,
// linear). Stage is "sign" (first round) or "commit" (slow path round).
type ShareMsg struct {
	Stage   string
	View    types.View
	Seq     types.SeqNum
	Digest  types.Digest
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (m *ShareMsg) Kind() string { return "SBFT-SHARE-" + m.Stage }

// Slot implements obsv.Slotted.
func (m *ShareMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigClaims implements crypto.SigClaimer: the share signature, which
// the collector verifies against the sender.
func (m *ShareMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: shareDigest(m.Stage, m.View, m.Seq, m.Digest), Sig: m.Sig}}
}

// ProofMsg broadcasts a collector certificate. Stage is "prepare" (slow
// path, 2f+1 sign shares), "commit" (slow path, 2f+1 commit shares) or
// "fast-commit" (fast path, all 3f+1 sign shares).
type ProofMsg struct {
	Stage  string
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Cert   *crypto.Certificate
	Sig    []byte
}

// Kind implements types.Message.
func (m *ProofMsg) Kind() string { return "SBFT-PROOF-" + m.Stage }

// Slot implements obsv.Slotted.
func (m *ProofMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// EncodedSize implements sim.Sizer so the threshold model holds.
func (m *ProofMsg) EncodedSize() int {
	size := 64 + crypto.SigSize
	if m.Cert != nil {
		size += m.Cert.EncodedSize()
	}
	return size
}

// SigDigest is the signed content.
func (m *ProofMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("sbft-proof").Str(m.Stage).U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the collector's signature,
// which receivers verify against the sender.
func (m *ProofMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// ViewChangeMsg and NewViewMsg implement a compact PBFT-style view change
// (the paper notes several linear protocols keep PBFT's quadratic
// view-change stage; we keep it linear-ish: signed VC to everyone, the
// new leader re-issues).
type ViewChangeMsg struct {
	NewView  types.View
	LastExec types.SeqNum
	// Committed carries executed slots with their transferable commit
	// certificates (a fast-commit or commit proof), so decided slots
	// survive even when the rest of the quorum lags.
	Committed []CommittedSlot
	Prepared  []PreparedSlot
	Replica   types.NodeID
	Sig       []byte
}

// CommittedSlot is a committed slot plus the proof that committed it.
type CommittedSlot struct {
	View   types.View
	Seq    types.SeqNum
	Batch  *types.Batch
	Fast   bool // certificate stage: fast-commit ("sign") vs commit
	Cert   *crypto.Certificate
	Voters []types.NodeID
}

// PreparedSlot carries a slot that reached a 2f+1 certificate.
type PreparedSlot struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Cert   *crypto.Certificate
}

// Kind implements types.Message.
func (*ViewChangeMsg) Kind() string { return "SBFT-VIEW-CHANGE" }

// SigDigest is the signed content.
func (m *ViewChangeMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("sbft-vc").U64(uint64(m.NewView)).U64(uint64(m.LastExec)).U64(uint64(m.Replica))
	for _, s := range m.Committed {
		h.U64(uint64(s.Seq)).Digest(s.Batch.Digest())
	}
	for _, p := range m.Prepared {
		h.U64(uint64(p.Seq)).Digest(p.Digest)
	}
	return h.Sum()
}

// NewViewMsg installs a view.
type NewViewMsg struct {
	View types.View
	// Base is the highest execution point in the view-change quorum;
	// fresh proposals start strictly above it.
	Base        types.SeqNum
	ViewChanges []*ViewChangeMsg
	Committed   []CommittedSlot
	PrePrepares []*PrePrepareMsg
	Sig         []byte
}

// Kind implements types.Message.
func (*NewViewMsg) Kind() string { return "SBFT-NEW-VIEW" }

// SigDigest is the signed content.
func (m *NewViewMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("sbft-nv").U64(uint64(m.View)).U64(uint64(m.Base))
	for _, s := range m.Committed {
		h.U64(uint64(s.Seq))
	}
	for _, pp := range m.PrePrepares {
		h.U64(uint64(pp.Seq)).Digest(pp.Digest)
	}
	return h.Sum()
}

// Options tunes an SBFT instance.
type Options struct {
	// SilentBackup makes this replica withhold its shares, forcing the
	// cluster onto the slow path (the DC6 fallback).
	SilentBackup bool
	// FastPathWait overrides τ3 (zero uses 4× the network batch
	// timeout, a pragmatic default for the simulator).
	FastPathWait time.Duration
}

type slot struct {
	digest   types.Digest
	batch    *types.Batch
	proposed bool
	// collector state (leader only)
	signShares   map[types.NodeID][]byte
	commitShares map[types.NodeID][]byte
	prepareSent  bool
	commitSent   bool
	fastTimer    bool
	// replica state
	signed      bool
	committed   bool
	prepareCert *crypto.Certificate
}

// SBFT is the protocol state machine for one replica.
type SBFT struct {
	env  core.Env
	opts Options
	cm   *core.CheckpointManager

	view    types.View
	nextSeq types.SeqNum
	slots   map[types.SeqNum]*slot
	// preparedProof and commitCerts persist across view changes; the
	// per-view slots map does not.
	preparedProof map[types.SeqNum]*PreparedSlot
	commitCerts   map[types.SeqNum]*CommittedSlot

	pool  *core.Mempool
	watch map[types.RequestKey]bool

	progressArmed bool

	inViewChange bool
	targetView   types.View
	vcs          map[types.View]map[types.NodeID]*ViewChangeMsg
	sentNewView  map[types.View]bool

	// FastCommits / SlowCommits count per-path decisions (experiments
	// X6 reads them).
	FastCommits int
	SlowCommits int
}

// New returns an SBFT replica with default options.
func New(cfg core.Config) core.Protocol { return NewWithOptions(cfg, Options{}) }

// NewWithOptions returns an SBFT replica with explicit options.
func NewWithOptions(_ core.Config, opts Options) core.Protocol {
	return &SBFT{opts: opts}
}

func init() {
	core.Register(core.Registration{
		Name:       "sbft",
		Profile:    core.SBFTProfile(),
		NewReplica: New,
	})
}

// Init implements core.Protocol.
func (s *SBFT) Init(env core.Env) {
	s.env = env
	s.cm = core.NewCheckpointManager(env)
	s.slots = make(map[types.SeqNum]*slot)
	s.preparedProof = make(map[types.SeqNum]*PreparedSlot)
	s.commitCerts = make(map[types.SeqNum]*CommittedSlot)
	s.pool = core.NewMempool()
	s.watch = make(map[types.RequestKey]bool)
	s.vcs = make(map[types.View]map[types.NodeID]*ViewChangeMsg)
	s.sentNewView = make(map[types.View]bool)
	if s.opts.FastPathWait == 0 {
		s.opts.FastPathWait = 4 * env.Config().BatchTimeout
	}
}

// View returns the current view.
func (s *SBFT) View() types.View { return s.view }

func (s *SBFT) leader() types.NodeID { return s.env.Config().LeaderOf(s.view) }

func (s *SBFT) isLeader() bool { return s.leader() == s.env.ID() }

func (s *SBFT) slot(seq types.SeqNum) *slot {
	sl := s.slots[seq]
	if sl == nil {
		sl = &slot{
			signShares:   make(map[types.NodeID][]byte),
			commitShares: make(map[types.NodeID][]byte),
		}
		s.slots[seq] = sl
	}
	return sl
}

// OnRequest implements core.Protocol.
func (s *SBFT) OnRequest(req *types.Request) {
	if s.pool.Done(req.Key()) {
		return
	}
	if !s.env.Verifier().VerifySig(req.Client, req.Digest(), req.Sig) {
		return
	}
	key := req.Key()
	s.watch[key] = true
	s.armProgress()
	added := s.pool.Add(req)
	if !s.isLeader() {
		s.env.Send(s.leader(), &core.ForwardMsg{Req: req})
	} else if added {
		s.maybePropose()
	}
}

// armProgress is level-triggered (see pbft.armProgress).
func (s *SBFT) armProgress() {
	if s.progressArmed || s.inViewChange {
		return
	}
	s.progressArmed = true
	s.env.SetTimer(core.TimerID{Name: timerProgress, View: s.view}, s.env.Config().ViewChangeTimeout)
}

func (s *SBFT) disarmProgress() {
	s.progressArmed = false
	s.env.StopTimer(core.TimerID{Name: timerProgress, View: s.view})
}

func (s *SBFT) maybePropose() {
	if !s.isLeader() || s.inViewChange {
		return
	}
	for {
		reqs := s.pool.Take(s.env.Config().BatchSize)
		if len(reqs) == 0 {
			return
		}
		batch := types.NewBatch(reqs...)
		s.nextSeq++
		seq := s.nextSeq
		pp := &PrePrepareMsg{View: s.view, Seq: seq, Digest: batch.Digest(), Batch: batch}
		pp.Sig = s.env.Signer().Sign(pp.SigDigest())
		s.env.Broadcast(pp)
		s.acceptPrePrepare(s.env.ID(), pp)
		// Arm τ3: if not all shares arrive in time, fall back.
		s.env.SetTimer(core.TimerID{Name: timerFastPath, Seq: seq, View: s.view}, s.opts.FastPathWait)
	}
}

func (s *SBFT) acceptPrePrepare(from types.NodeID, pp *PrePrepareMsg) {
	if pp.View != s.view || s.inViewChange {
		return
	}
	if pp.Seq <= s.env.Ledger().LastExecuted() {
		return
	}
	if pp.Batch.Digest() != pp.Digest {
		return
	}
	sl := s.slot(pp.Seq)
	if sl.proposed && sl.digest != pp.Digest {
		s.startViewChange(s.view + 1)
		return
	}
	sl.proposed = true
	sl.digest = pp.Digest
	sl.batch = pp.Batch
	for _, r := range pp.Batch.Requests {
		s.watch[r.Key()] = true
		s.pool.Claim(r.Key())
	}
	s.armProgress()
	if !sl.signed && !s.opts.SilentBackup {
		sl.signed = true
		sd := shareDigest("sign", pp.View, pp.Seq, pp.Digest)
		share := &ShareMsg{Stage: "sign", View: pp.View, Seq: pp.Seq, Digest: pp.Digest,
			Replica: s.env.ID(), Sig: s.env.Signer().Sign(sd)}
		if s.isLeader() {
			s.onShare(s.env.ID(), share)
		} else {
			s.env.Send(s.leader(), share)
		}
	}
}

// OnMessage implements core.Protocol.
func (s *SBFT) OnMessage(from types.NodeID, m types.Message) {
	if s.cm.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		s.OnRequest(mm.Req)
	case *PrePrepareMsg:
		if from != s.env.Config().LeaderOf(mm.View) {
			return
		}
		if !s.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		s.acceptPrePrepare(from, mm)
	case *ShareMsg:
		if mm.Replica != from {
			return
		}
		sd := shareDigest(mm.Stage, mm.View, mm.Seq, mm.Digest)
		if !s.env.Verifier().VerifySig(from, sd, mm.Sig) {
			return
		}
		s.onShare(from, mm)
	case *ProofMsg:
		if from != s.env.Config().LeaderOf(mm.View) {
			return
		}
		if !s.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		s.onProof(mm)
	case *ViewChangeMsg:
		s.onViewChange(from, mm)
	case *NewViewMsg:
		s.onNewView(from, mm)
	}
}

func (s *SBFT) onShare(from types.NodeID, m *ShareMsg) {
	if !s.isLeader() || m.View != s.view || s.inViewChange {
		return
	}
	sl := s.slot(m.Seq)
	if sl.proposed && sl.digest != m.Digest {
		return
	}
	switch m.Stage {
	case "sign":
		sl.signShares[from] = m.Sig
		if len(sl.signShares) == s.env.N() && !sl.commitSent {
			// Fast path: everyone answered before τ3.
			s.env.StopTimer(core.TimerID{Name: timerFastPath, Seq: m.Seq, View: m.View})
			sl.commitSent = true
			s.sendProof("fast-commit", m.Seq, sl, sl.signShares, "sign")
		}
	case "commit":
		sl.commitShares[from] = m.Sig
		if len(sl.commitShares) >= s.env.Config().Quorum() && !sl.commitSent {
			sl.commitSent = true
			s.sendProof("commit", m.Seq, sl, sl.commitShares, "commit")
		}
	}
}

func (s *SBFT) sendProof(stage string, seq types.SeqNum, sl *slot, shares map[types.NodeID][]byte, shareStage string) {
	cert := &crypto.Certificate{
		Digest:    shareDigest(shareStage, s.view, seq, sl.digest),
		Threshold: s.env.Scheme() == crypto.SchemeThreshold,
	}
	for id, sig := range shares {
		cert.Add(id, sig)
	}
	proof := &ProofMsg{Stage: stage, View: s.view, Seq: seq, Digest: sl.digest, Cert: cert}
	proof.Sig = s.env.Signer().Sign(proof.SigDigest())
	s.env.Broadcast(proof)
	s.onProof(proof)
}

func (s *SBFT) onProof(m *ProofMsg) {
	if m.View != s.view || s.inViewChange {
		return
	}
	sl := s.slot(m.Seq)
	if sl.committed {
		return
	}
	need := s.env.Config().Quorum()
	shareStage := "commit"
	switch m.Stage {
	case "fast-commit":
		need = s.env.N()
		shareStage = "sign"
	case "prepare":
		shareStage = "sign"
	}
	want := shareDigest(shareStage, m.View, m.Seq, m.Digest)
	if m.Cert == nil || m.Cert.Digest != want || m.Cert.Verify(s.env.Verifier(), need) != nil {
		return
	}
	switch m.Stage {
	case "fast-commit", "commit":
		if !sl.proposed {
			return // need the batch; it will arrive (leader retransmits via new view or checkpoint catch-up)
		}
		if sl.digest != m.Digest {
			return
		}
		sl.committed = true
		if m.Stage == "fast-commit" {
			s.FastCommits++
		} else {
			s.SlowCommits++
		}
		// The proof certificate is transferable: retain it so view
		// changes can carry this decision to lagging replicas.
		s.commitCerts[m.Seq] = &CommittedSlot{
			View: m.View, Seq: m.Seq, Batch: sl.batch,
			Fast: m.Stage == "fast-commit", Cert: m.Cert,
			Voters: append([]types.NodeID(nil), m.Cert.Signers...),
		}
		proof := &types.CommitProof{View: m.View, Seq: m.Seq, Digest: m.Digest,
			Voters: append([]types.NodeID(nil), m.Cert.Signers...)}
		s.env.Commit(m.View, m.Seq, sl.batch, proof)
	case "prepare":
		// Slow path round two: return a commit share.
		if !sl.proposed || sl.digest != m.Digest {
			return
		}
		sl.prepareCert = m.Cert
		if prev := s.preparedProof[m.Seq]; prev == nil || prev.View < m.View {
			s.preparedProof[m.Seq] = &PreparedSlot{
				View: m.View, Seq: m.Seq, Digest: m.Digest, Batch: sl.batch, Cert: m.Cert,
			}
		}
		if s.opts.SilentBackup {
			return
		}
		cd := shareDigest("commit", m.View, m.Seq, m.Digest)
		share := &ShareMsg{Stage: "commit", View: m.View, Seq: m.Seq, Digest: m.Digest,
			Replica: s.env.ID(), Sig: s.env.Signer().Sign(cd)}
		if s.isLeader() {
			s.onShare(s.env.ID(), share)
		} else {
			s.env.Send(s.leader(), share)
		}
	}
}

// OnTimer implements core.Protocol.
func (s *SBFT) OnTimer(id core.TimerID) {
	switch id.Name {
	case timerFastPath:
		// τ3 fired: some backup is slow or silent; take the slow path
		// with whatever quorum arrived.
		if !s.isLeader() || id.View != s.view {
			return
		}
		sl := s.slots[id.Seq]
		if sl == nil || sl.committed || sl.commitSent || sl.prepareSent {
			return
		}
		if len(sl.signShares) >= s.env.Config().Quorum() {
			sl.prepareSent = true
			s.sendProof("prepare", id.Seq, sl, sl.signShares, "sign")
		} else {
			// Not even a quorum: re-arm and hope the network delivers;
			// the backups' progress timers bound this wait.
			s.env.SetTimer(core.TimerID{Name: timerFastPath, Seq: id.Seq, View: id.View}, s.opts.FastPathWait)
		}
	case timerProgress:
		s.progressArmed = false
		if id.View == s.view && len(s.watch) > 0 {
			s.startViewChange(s.view + 1)
		}
	case timerVCRetry:
		if s.inViewChange && id.View == s.targetView {
			s.startViewChange(s.targetView + 1)
		}
	}
}

// OnExecuted implements core.Protocol.
func (s *SBFT) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	for i, req := range batch.Requests {
		delete(s.watch, req.Key())
		s.pool.Executed(req.Key())
		s.env.Reply(&types.Reply{
			Client:    req.Client,
			ClientSeq: req.ClientSeq,
			View:      s.view,
			Seq:       seq,
			Result:    results[i],
		})
	}
	delete(s.slots, seq)
	delete(s.preparedProof, seq)
	for cs := range s.commitCerts {
		if cs <= s.env.Ledger().LowWater() {
			delete(s.commitCerts, cs)
		}
	}
	if s.nextSeq < seq {
		s.nextSeq = seq
	}
	s.cm.OnExecuted(seq)
	s.disarmProgress()
	if len(s.watch) > 0 {
		s.armProgress()
	}
	s.maybePropose()
}
