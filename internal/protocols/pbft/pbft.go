package pbft

import (
	"fmt"
	"sort"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Timer names (mapped to the paper's τ taxonomy).
const (
	timerBatch      = "batch"      // leader batch formation
	timerProgress   = "progress"   // τ2: trigger view change
	timerViewChange = "vc-retry"   // τ2: consecutive view changes
	timerRejuvenate = "rejuvenate" // τ8: proactive recovery watchdog
	timerDelay      = "delay"      // attack injection only
)

// Sliding-window batching (Castro & Liskov, OSDI '99): the leader keeps
// at most window slots in flight (sequenced, not yet executed locally).
// Each slot takes up to BatchSize requests, except the window's last
// free slot, which takes the backlog up to max(BatchSize, maxBatch). So
// an idle leader still proposes a lone request the moment it arrives,
// and once the window is full, requests wait in the pool until
// OnExecuted frees a slot that carries them as one batch. maxBatch keeps
// a pre-prepare far below the transport's frame bound even with 1 KiB
// requests. With at most window requests outstanding the window never
// fills, so such workloads order exactly as unwindowed PBFT does.
const (
	window   = 2
	maxBatch = 64
)

// Options tunes a PBFT instance, including the Byzantine behaviors the
// experiments inject when this replica plays the adversary.
type Options struct {
	// EquivocateAsLeader makes a Byzantine leader send conflicting
	// pre-prepares to different halves of the backups.
	EquivocateAsLeader bool
	// SilentLeader makes a Byzantine leader drop client requests.
	SilentLeader bool
	// DelayAttack makes a Byzantine leader delay every proposal by the
	// given duration (staying just inside the view-change timeout —
	// the attack Prime was designed to bound, X14).
	DelayAttack time.Duration
	// RejuvenationInterval enables proactive recovery (τ8): the
	// replica periodically discards its volatile ordering state and
	// rebuilds from the log. Zero disables it.
	RejuvenationInterval time.Duration
	// FrontRun makes a Byzantine leader propose its backlog in reverse
	// arrival order (a front-running/reordering adversary for the
	// order-fairness experiments, Q1/X8).
	FrontRun bool
}

type instKey struct {
	View types.View
	Seq  types.SeqNum
}

type instance struct {
	digest      types.Digest
	batch       *types.Batch
	prePrepared bool
	// ppSig is the leader's signature on the pre-prepare; it stands in
	// for the leader's prepare vote in view-change proofs.
	ppSig []byte
	// prepares holds prepare signatures matching digest (sig-mode) or
	// just vote presence (MAC mode), keyed by voter.
	prepares  map[types.NodeID][]byte
	commits   map[types.NodeID][]byte
	sentPrep  bool
	sentComm  bool
	prepared  bool
	committed bool
}

// PBFT is the protocol state machine for one replica.
type PBFT struct {
	env  core.Env
	opts Options
	cm   *core.CheckpointManager

	view    types.View
	nextSeq types.SeqNum
	insts   map[instKey]*instance
	// preparedProof remembers, per sequence number, the
	// highest-view prepared certificate for view changes.
	preparedProof map[types.SeqNum]*PreparedProof
	// commitCerts retains the 2f+1 commit signatures per executed slot
	// (until the checkpoint low-water mark passes it) so catch-up can
	// hand a single verifiable certificate to lagging replicas.
	commitCerts map[types.SeqNum]*crypto.Certificate

	pending    []*types.Request
	pendingSet map[types.RequestKey]bool
	// inFlight marks requests currently inside a proposed (but not yet
	// executed) slot of the current view; cleared on view change so a
	// new leader re-proposes anything the old view lost.
	inFlight  map[types.RequestKey]bool
	watch     map[types.RequestKey]bool
	done      map[types.RequestKey]bool
	lastReply map[types.NodeID]*types.Reply

	progressArmed bool

	// catchup collects committed-slot reports per sequence number; a
	// slot is adopted once f+1 peers agree on its digest.
	catchup map[types.SeqNum]map[types.Digest]*catchupEntry

	inViewChange bool
	targetView   types.View
	vcs          map[types.View]map[types.NodeID]*ViewChangeMsg
	sentNewView  map[types.View]bool
	vcTimeout    time.Duration

	// viewEvidence tracks, per peer, the highest view that peer has
	// demonstrated through an authenticated protocol message. A replica
	// that restarts after the cluster performed a view change boots at
	// view 0 and would otherwise reject every current-view message
	// forever — the NewViewMsg that moved the others was consumed long
	// ago. Once f+1 distinct peers show views above ours, at least one
	// honest replica reached its view through a certified view change,
	// so the (f+1)-th highest evidenced view is safe to adopt.
	viewEvidence map[types.NodeID]types.View

	batchArmed bool
}

// New returns a PBFT replica protocol with default options.
func New(cfg core.Config) core.Protocol { return NewWithOptions(cfg, Options{}) }

// NewWithOptions returns a PBFT replica protocol with explicit options.
func NewWithOptions(_ core.Config, opts Options) core.Protocol {
	return &PBFT{opts: opts}
}

func init() {
	core.Register(core.Registration{
		Name:       "pbft",
		Profile:    core.PBFTProfile(),
		NewReplica: New,
	})
	core.Register(core.Registration{
		Name:       "pbft-mac",
		Profile:    core.PBFTMACProfile(),
		NewReplica: New, // the runtime's Scheme drives MAC vs signature
	})
}

// Init implements core.Protocol.
func (p *PBFT) Init(env core.Env) {
	p.env = env
	p.cm = core.NewCheckpointManager(env)
	p.insts = make(map[instKey]*instance)
	p.preparedProof = make(map[types.SeqNum]*PreparedProof)
	p.commitCerts = make(map[types.SeqNum]*crypto.Certificate)
	p.pendingSet = make(map[types.RequestKey]bool)
	p.inFlight = make(map[types.RequestKey]bool)
	p.watch = make(map[types.RequestKey]bool)
	p.done = make(map[types.RequestKey]bool)
	p.lastReply = make(map[types.NodeID]*types.Reply)
	p.vcs = make(map[types.View]map[types.NodeID]*ViewChangeMsg)
	p.sentNewView = make(map[types.View]bool)
	p.viewEvidence = make(map[types.NodeID]types.View)
	p.catchup = make(map[types.SeqNum]map[types.Digest]*catchupEntry)
	p.vcTimeout = env.Config().ViewChangeTimeout
	if p.opts.RejuvenationInterval > 0 {
		stagger := time.Duration(int(env.ID())+1) * p.opts.RejuvenationInterval / time.Duration(env.N())
		env.SetTimer(core.TimerID{Name: timerRejuvenate}, p.opts.RejuvenationInterval+stagger)
	}
}

// Leader returns the current view's leader.
func (p *PBFT) Leader() types.NodeID { return p.env.Config().LeaderOf(p.view) }

// View returns the current view (tests observe it).
func (p *PBFT) View() types.View { return p.view }

// DebugState summarizes internal state for tests.
func (p *PBFT) DebugState() string {
	return fmt.Sprintf("view=%d target=%d invc=%v pending=%d watch=%d proofs=%d nextSeq=%d",
		p.view, p.targetView, p.inViewChange, len(p.pending), len(p.watch), len(p.preparedProof), p.nextSeq)
}

func (p *PBFT) isLeader() bool { return p.Leader() == p.env.ID() }

// InFlightSlots is the number of slots this replica has sequenced but
// not yet executed — the sliding window's occupancy when it leads.
func (p *PBFT) InFlightSlots() int {
	if last := p.env.Ledger().LastExecuted(); p.nextSeq > last {
		return int(p.nextSeq - last)
	}
	return 0
}

func (p *PBFT) inst(k instKey) *instance {
	in := p.insts[k]
	if in == nil {
		in = &instance{
			prepares: make(map[types.NodeID][]byte),
			commits:  make(map[types.NodeID][]byte),
		}
		p.insts[k] = in
	}
	return in
}

// OnRequest implements core.Protocol.
func (p *PBFT) OnRequest(req *types.Request) {
	if p.done[req.Key()] {
		if r := p.lastReply[req.Client]; r != nil && r.ClientSeq == req.ClientSeq {
			p.env.Reply(cloneReply(r))
		}
		return
	}
	if !p.env.Verifier().VerifySig(req.Client, req.Digest(), req.Sig) {
		return
	}
	key := req.Key()
	p.armProgress(key)
	if p.pendingSet[key] {
		if !p.isLeader() {
			p.env.Send(p.Leader(), &core.ForwardMsg{Req: req})
		}
		return
	}
	// Both leader and backups buffer the request: a backup that later
	// becomes leader proposes its buffered backlog (liveness across
	// view changes).
	p.pendingSet[key] = true
	p.pending = append(p.pending, req)
	if !p.isLeader() {
		p.env.Send(p.Leader(), &core.ForwardMsg{Req: req})
		return
	}
	if p.opts.SilentLeader {
		return
	}
	p.maybePropose()
}

// armProgress is level-triggered: fresh requests must not keep pushing
// the τ2 deadline out, or a faulty leader would never be suspected under
// continuous load.
func (p *PBFT) armProgress(key types.RequestKey) {
	p.watch[key] = true
	p.rearmProgress()
}

func (p *PBFT) rearmProgress() {
	if p.progressArmed || p.inViewChange {
		return
	}
	p.progressArmed = true
	p.env.SetTimer(core.TimerID{Name: timerProgress, View: p.view}, p.env.Config().ViewChangeTimeout)
}

func (p *PBFT) disarmProgress() {
	p.progressArmed = false
	p.env.StopTimer(core.TimerID{Name: timerProgress, View: p.view})
}

func (p *PBFT) maybePropose() {
	if !p.isLeader() || p.inViewChange {
		return
	}
	cfg := p.env.Config()
	if p.opts.FrontRun {
		// The front-running adversary deliberately holds requests to
		// build a backlog it can drain newest-first.
		if len(p.pending) > 0 && !p.batchArmed {
			p.batchArmed = true
			p.env.SetTimer(core.TimerID{Name: timerBatch}, 5*cfg.BatchTimeout)
		}
		return
	}
	if len(p.pending) >= cfg.BatchSize {
		p.proposeBatch()
		return
	}
	if len(p.pending) > 0 && !p.batchArmed {
		p.batchArmed = true
		p.env.SetTimer(core.TimerID{Name: timerBatch}, cfg.BatchTimeout)
	}
}

func (p *PBFT) proposeBatch() {
	cfg := p.env.Config()
	for {
		if uint64(p.nextSeq) >= uint64(p.env.Ledger().LowWater())+cfg.HighWaterWindow {
			return // out of window; resume as checkpoints advance
		}
		free := window - p.InFlightSlots()
		if free <= 0 {
			return // window full: OnExecuted proposes the backlog
		}
		size := cfg.BatchSize
		if free == 1 && size < maxBatch {
			size = maxBatch // the last free slot carries the backlog
		}
		reqs := p.takePending(size)
		if len(reqs) == 0 {
			return
		}
		p.nextSeq++
		p.sendPrePrepare(p.nextSeq, types.NewBatch(reqs...))
	}
}

// takePending selects up to k proposable requests from the backlog:
// known, not yet executed, and not already inside an in-flight slot of
// the current view. Requests stay buffered until execution so a proposal
// lost to a view change is re-proposed rather than dropped. A FrontRun
// adversary drains the backlog newest-first, inverting arrival order.
func (p *PBFT) takePending(k int) []*types.Request {
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
	if p.opts.FrontRun {
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

func (p *PBFT) sendPrePrepare(seq types.SeqNum, batch *types.Batch) {
	pp := &PrePrepareMsg{View: p.view, Seq: seq, Digest: batch.Digest(), Batch: batch}
	pp.Sig, pp.Auth = core.Authenticate(p.env, pp.SigDigest())
	if p.opts.DelayAttack > 0 {
		p.delayedBroadcast(pp, seq)
	} else if p.opts.EquivocateAsLeader {
		p.equivocate(pp)
	} else {
		p.env.Broadcast(pp)
	}
	p.acceptPrePrepare(pp)
}

// delayedBroadcast holds a proposal back by the attack delay before
// letting the backups see it.
func (p *PBFT) delayedBroadcast(pp *PrePrepareMsg, seq types.SeqNum) {
	p.env.SetTimer(core.TimerID{Name: timerDelay, Seq: seq}, p.opts.DelayAttack)
	// Remember the proposal so the timer callback can send it.
	in := p.inst(instKey{p.view, seq})
	in.batch = pp.Batch
	in.digest = pp.Digest
}

func (p *PBFT) equivocate(pp *PrePrepareMsg) {
	// Conflicting assignment: the second half of the backups see an
	// empty batch at the same sequence number.
	alt := &PrePrepareMsg{View: pp.View, Seq: pp.Seq, Digest: types.ZeroDigest, Batch: types.NewBatch()}
	alt.Sig, alt.Auth = core.Authenticate(p.env, alt.SigDigest())
	for i, id := range p.env.Replicas() {
		if id == p.env.ID() {
			continue
		}
		if i%2 == 0 {
			p.env.Send(id, pp)
		} else {
			p.env.Send(id, alt)
		}
	}
}

// acceptPrePrepare runs the backup-side acceptance rules (also used by
// the leader to record its own proposal).
func (p *PBFT) acceptPrePrepare(pp *PrePrepareMsg) {
	if pp.View != p.view || p.inViewChange {
		// Callers have already authenticated the pre-prepare against
		// the leader of pp.View, so a future view counts as that
		// leader's evidence toward a view jump.
		if pp.View > p.view {
			p.noteHigherView(p.env.Config().LeaderOf(pp.View), pp.View)
		}
		return
	}
	cfg := p.env.Config()
	if pp.Seq <= p.env.Ledger().LowWater() ||
		uint64(pp.Seq) > uint64(p.env.Ledger().LowWater())+cfg.HighWaterWindow {
		return
	}
	if pp.Seq <= p.env.Ledger().LastExecuted() {
		// Already executed: instead of re-voting, push the committed
		// slot (with its certificate) to the proposer so the rest of
		// the cluster converges on what was decided.
		if e := p.env.Ledger().Get(pp.Seq); e != nil {
			cs := CommittedSlot{View: e.View, Seq: e.Seq, Batch: e.Batch, Cert: p.commitCerts[e.Seq]}
			if e.Proof != nil {
				cs.Voters = e.Proof.Voters
			}
			p.env.Send(p.env.Config().LeaderOf(pp.View), &CommittedMsg{Replica: p.env.ID(), Entries: []CommittedSlot{cs}})
		}
		return
	}
	if pp.Batch.Digest() != pp.Digest {
		return
	}
	k := instKey{pp.View, pp.Seq}
	in := p.inst(k)
	if in.prePrepared && in.digest != pp.Digest {
		// Equivocation detected: refuse and push toward a view change.
		p.startViewChange(p.view + 1)
		return
	}
	in.prePrepared = true
	in.digest = pp.Digest
	in.batch = pp.Batch
	in.ppSig = pp.Sig
	for _, r := range pp.Batch.Requests {
		p.armProgress(r.Key())
		p.inFlight[r.Key()] = true
	}
	if !in.sentPrep && p.env.ID() != p.env.Config().LeaderOf(pp.View) {
		// Only backups send prepares; the leader's pre-prepare is its
		// vote (Figure 2). Each backup also counts its own prepare,
		// backed by a real signature so prepared certificates stay
		// verifiable in view changes.
		in.sentPrep = true
		pm := &PrepareMsg{View: pp.View, Seq: pp.Seq, Digest: pp.Digest, Replica: p.env.ID()}
		pm.Sig, pm.Auth = core.Authenticate(p.env, pm.SigDigest())
		p.env.Broadcast(pm)
		sig := pm.Sig
		if sig == nil {
			sig = p.env.Signer().Sign(pm.SigDigest())
		}
		in.prepares[p.env.ID()] = sig
	}
	p.checkPrepared(k, in)
	p.checkCommitted(k, in)
}

// OnMessage implements core.Protocol.
func (p *PBFT) OnMessage(from types.NodeID, m types.Message) {
	if p.cm.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		p.OnRequest(mm.Req)
	case *PrePrepareMsg:
		if from != p.env.Config().LeaderOf(mm.View) {
			return
		}
		if !core.VerifyAuth(p.env, from, mm.SigDigest(), mm.Sig, mm.Auth) {
			return
		}
		p.acceptPrePrepare(mm)
	case *PrepareMsg:
		p.onPrepare(from, mm)
	case *CommitMsg:
		p.onCommit(from, mm)
	case *ViewChangeMsg:
		p.onViewChange(from, mm)
	case *NewViewMsg:
		p.onNewView(from, mm)
	case *FetchCommittedMsg:
		p.onFetchCommitted(from, mm)
	case *CommittedMsg:
		p.onCommitted(from, mm)
	}
}

type catchupEntry struct {
	batch  *types.Batch
	voters map[types.NodeID]bool
}

// requestCatchup asks all peers for committed slots we are missing.
func (p *PBFT) requestCatchup() {
	p.env.Broadcast(&FetchCommittedMsg{From: p.env.Ledger().LastExecuted()})
}

// verifyCommitCert checks 2f+1 distinct valid commit signatures for the
// slot. MAC-mode deployments cannot transfer commit evidence, so their
// certificates never verify here and the f+1-attestation path is used.
func (p *PBFT) verifyCommitCert(v types.View, seq types.SeqNum, d types.Digest, cert *crypto.Certificate) bool {
	if cert.Size() < p.env.Config().Quorum() {
		return false
	}
	seen := make(map[types.NodeID]bool, cert.Size())
	probe := &CommitMsg{View: v, Seq: seq, Digest: d}
	for i, signer := range cert.Signers {
		if seen[signer] {
			return false
		}
		seen[signer] = true
		probe.Replica = signer
		if !p.env.Verifier().VerifySig(signer, probe.SigDigest(), cert.Sigs[i]) {
			return false
		}
	}
	return true
}

func (p *PBFT) onFetchCommitted(from types.NodeID, m *FetchCommittedMsg) {
	led := p.env.Ledger()
	if led.LastExecuted() <= m.From {
		return
	}
	resp := &CommittedMsg{Replica: p.env.ID()}
	for _, e := range led.CommittedAbove(m.From) {
		if e.Seq > m.From+64 {
			break
		}
		cs := CommittedSlot{View: e.View, Seq: e.Seq, Batch: e.Batch, Cert: p.commitCerts[e.Seq]}
		if e.Proof != nil {
			cs.Voters = e.Proof.Voters
		}
		resp.Entries = append(resp.Entries, cs)
	}
	// Prune certificates the stable checkpoint has made redundant.
	for seq := range p.commitCerts {
		if seq <= led.LowWater() {
			delete(p.commitCerts, seq)
		}
	}
	if len(resp.Entries) > 0 {
		p.env.Send(from, resp)
	}
}

// onCommitted adopts reported slots either on a valid 2f+1 commit
// certificate (one honest peer suffices) or once f+1 distinct peers agree
// on a digest — at least one of them is honest, so the slot really
// committed.
func (p *PBFT) onCommitted(from types.NodeID, m *CommittedMsg) {
	for _, e := range m.Entries {
		if e.Batch == nil || e.Seq <= p.env.Ledger().LastExecuted() {
			continue
		}
		d := e.Batch.Digest()
		if e.Cert != nil && e.Cert.Digest == d && p.verifyCommitCert(e.View, e.Seq, d, e.Cert) {
			proof := &types.CommitProof{View: e.View, Seq: e.Seq, Digest: d, Special: "catch-up-cert",
				Voters: append([]types.NodeID(nil), e.Cert.Signers...)}
			p.commitCerts[e.Seq] = e.Cert
			p.env.Commit(e.View, e.Seq, e.Batch, proof)
			delete(p.catchup, e.Seq)
			continue
		}
		byDigest := p.catchup[e.Seq]
		if byDigest == nil {
			byDigest = make(map[types.Digest]*catchupEntry)
			p.catchup[e.Seq] = byDigest
		}
		ce := byDigest[d]
		if ce == nil {
			ce = &catchupEntry{batch: e.Batch, voters: make(map[types.NodeID]bool)}
			byDigest[d] = ce
		}
		ce.voters[from] = true
		if len(ce.voters) >= p.env.F()+1 {
			proof := &types.CommitProof{View: e.View, Seq: e.Seq, Digest: d, Special: "catch-up"}
			for id := range ce.voters {
				proof.Voters = append(proof.Voters, id)
			}
			p.env.Commit(e.View, e.Seq, ce.batch, proof)
			delete(p.catchup, e.Seq)
		}
	}
}

func (p *PBFT) onPrepare(from types.NodeID, m *PrepareMsg) {
	if m.Replica != from {
		return
	}
	if m.View != p.view || p.inViewChange {
		if m.View > p.view && core.VerifyAuth(p.env, from, m.SigDigest(), m.Sig, m.Auth) {
			p.noteHigherView(from, m.View)
		}
		return
	}
	if m.Seq <= p.env.Ledger().LowWater() {
		return
	}
	if !core.VerifyAuth(p.env, from, m.SigDigest(), m.Sig, m.Auth) {
		return
	}
	k := instKey{m.View, m.Seq}
	in := p.inst(k)
	if in.prePrepared && in.digest != m.Digest {
		return
	}
	if !in.prePrepared {
		// Buffer only votes for a single digest per slot; a mismatch
		// before pre-prepare is resolved when the pre-prepare arrives.
		if len(in.prepares) > 0 && in.digest != m.Digest {
			return
		}
		in.digest = m.Digest
	}
	in.prepares[from] = m.Sig
	p.checkPrepared(k, in)
}

// checkPrepared fires when the slot holds a pre-prepare (the leader's
// vote) plus prepares from 2f replicas including this one — 2f+1
// distinct replicas in total, the paper's prepared predicate.
func (p *PBFT) checkPrepared(k instKey, in *instance) {
	if in.prepared || !in.prePrepared {
		return
	}
	if len(in.prepares) < 2*p.env.F() {
		return
	}
	in.prepared = true
	// Record the prepared certificate for view changes: the backups'
	// prepare signatures plus the leader's pre-prepare signature.
	cert := &crypto.Certificate{Digest: in.digest, Threshold: false}
	for id, sig := range in.prepares {
		cert.Add(id, sig)
	}
	prev := p.preparedProof[k.Seq]
	if prev == nil || prev.View < k.View {
		p.preparedProof[k.Seq] = &PreparedProof{
			View: k.View, Seq: k.Seq, Digest: in.digest, Batch: in.batch,
			LeaderSig: in.ppSig, Cert: cert,
		}
	}
	if !in.sentComm {
		in.sentComm = true
		cm := &CommitMsg{View: k.View, Seq: k.Seq, Digest: in.digest, Replica: p.env.ID()}
		cm.Sig, cm.Auth = core.Authenticate(p.env, cm.SigDigest())
		p.env.Broadcast(cm)
		sig := cm.Sig
		if sig == nil {
			sig = p.env.Signer().Sign(cm.SigDigest())
		}
		in.commits[p.env.ID()] = sig
	}
	p.checkCommitted(k, in)
}

func (p *PBFT) onCommit(from types.NodeID, m *CommitMsg) {
	if m.Replica != from {
		return
	}
	if m.View != p.view || p.inViewChange {
		if m.View > p.view && core.VerifyAuth(p.env, from, m.SigDigest(), m.Sig, m.Auth) {
			p.noteHigherView(from, m.View)
		}
		return
	}
	if m.Seq <= p.env.Ledger().LowWater() {
		return
	}
	if !core.VerifyAuth(p.env, from, m.SigDigest(), m.Sig, m.Auth) {
		return
	}
	k := instKey{m.View, m.Seq}
	in := p.inst(k)
	if in.digest != m.Digest && (in.prePrepared || len(in.prepares) > 0) {
		return
	}
	in.commits[from] = m.Sig
	p.checkCommitted(k, in)
}

// noteHigherView records signature-verified evidence that a peer
// operates at a view above ours and, once f+1 distinct peers do, jumps
// directly to the (f+1)-th highest evidenced view. This is the rejoin
// path for a replica that slept through view changes (crash + restart):
// it cannot replay the NewViewMsg that moved the cluster, but f+1
// distinct authenticated senders at higher views guarantee at least one
// honest replica reached its view through a certified view change.
func (p *PBFT) noteHigherView(from types.NodeID, v types.View) {
	if p.viewEvidence == nil {
		p.viewEvidence = make(map[types.NodeID]types.View)
	}
	if v <= p.viewEvidence[from] {
		return
	}
	p.viewEvidence[from] = v
	if len(p.viewEvidence) <= p.env.F() {
		return
	}
	views := make([]types.View, 0, len(p.viewEvidence))
	for _, ev := range p.viewEvidence {
		views = append(views, ev)
	}
	sort.Slice(views, func(i, j int) bool { return views[i] > views[j] })
	if target := views[p.env.F()]; target > p.view {
		p.jumpToView(target)
	}
}

// jumpToView adopts view v without running our own view change,
// resetting the same per-view state installNewView does, then pulls the
// committed slots we missed while dark.
func (p *PBFT) jumpToView(v types.View) {
	p.env.Logf("view sync: jumping from view %d to %d on f+1 higher-view evidence", p.view, v)
	p.view = v
	p.inViewChange = false
	p.inFlight = make(map[types.RequestKey]bool)
	p.vcTimeout = p.env.Config().ViewChangeTimeout
	p.env.StopTimer(core.TimerID{Name: timerViewChange, View: v})
	p.env.ViewChanged(v)
	p.requestCatchup()
	for vv := range p.vcs {
		if vv <= v {
			delete(p.vcs, vv)
		}
	}
	p.viewEvidence = make(map[types.NodeID]types.View)
	for key := range p.watch {
		p.armProgress(key)
		break
	}
}

func (p *PBFT) checkCommitted(k instKey, in *instance) {
	if in.committed || !in.prepared {
		return
	}
	if len(in.commits) < p.env.Config().Quorum() {
		return
	}
	in.committed = true
	proof := &types.CommitProof{View: k.View, Seq: k.Seq, Digest: in.digest}
	cert := &crypto.Certificate{Digest: in.digest}
	for id, sig := range in.commits {
		proof.Voters = append(proof.Voters, id)
		if sig != nil {
			cert.Add(id, sig)
		}
	}
	if cert.Size() >= p.env.Config().Quorum() {
		p.commitCerts[k.Seq] = cert
	}
	p.env.Commit(k.View, k.Seq, in.batch, proof)
}

// OnExecuted implements core.Protocol: reply to clients, update the
// duplicate cache, service the checkpoint manager, and keep the
// progress timer honest.
func (p *PBFT) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	for i, req := range batch.Requests {
		delete(p.watch, req.Key())
		delete(p.pendingSet, req.Key())
		delete(p.inFlight, req.Key())
		p.done[req.Key()] = true
		rep := &types.Reply{
			Client:    req.Client,
			ClientSeq: req.ClientSeq,
			View:      p.view,
			Seq:       seq,
			Result:    results[i],
		}
		p.lastReply[req.Client] = rep
		p.env.Reply(cloneReply(rep))
	}
	delete(p.preparedProof, seq)
	delete(p.catchup, seq)
	if p.nextSeq < seq {
		p.nextSeq = seq
	}
	p.cm.OnExecuted(seq)
	// Progress was made: rearm or clear the τ2 timer.
	p.disarmProgress()
	for key := range p.watch {
		p.armProgress(key)
		break
	}
	p.maybePropose()
}

func cloneReply(r *types.Reply) *types.Reply {
	cp := *r
	cp.Sig = nil
	return &cp
}

// OnTimer implements core.Protocol.
func (p *PBFT) OnTimer(id core.TimerID) {
	switch id.Name {
	case timerBatch:
		p.batchArmed = false
		if len(p.pending) > 0 {
			p.proposeBatch()
		}
	case timerProgress:
		p.progressArmed = false
		if id.View == p.view && len(p.watch) > 0 {
			// A committed-but-gapped ledger means we may simply have
			// missed slots on a lossy network — fetch them — but the
			// gap can also be a slot nobody committed, which only a
			// view change can re-propose. Do both.
			led := p.env.Ledger()
			if led.Len() > 0 && led.NextExecutable() == nil {
				p.requestCatchup()
			}
			p.startViewChange(p.view + 1)
		}
	case timerViewChange:
		if p.inViewChange && id.View == p.targetView {
			// Exponential backoff, capped: with message loss a view
			// change round may need several attempts, and an unbounded
			// timeout would effectively halt the replica.
			if p.vcTimeout < 4*p.env.Config().ViewChangeTimeout {
				p.vcTimeout *= 2
			}
			p.startViewChange(p.targetView + 1)
		}
	case timerDelay:
		// Attack injection: release the withheld proposal.
		in := p.insts[instKey{p.view, id.Seq}]
		if in != nil && in.batch != nil {
			pp := &PrePrepareMsg{View: p.view, Seq: id.Seq, Digest: in.digest, Batch: in.batch}
			pp.Sig, pp.Auth = core.Authenticate(p.env, pp.SigDigest())
			p.env.Broadcast(pp)
			p.acceptPrePrepare(pp)
		}
	case timerRejuvenate:
		p.rejuvenate()
	}
}

// rejuvenate implements proactive recovery (P5): discard volatile
// ordering state and continue from the durable log. In-flight slots are
// re-proposed by the leader or recovered through the next view change.
func (p *PBFT) rejuvenate() {
	p.insts = make(map[instKey]*instance)
	p.vcs = make(map[types.View]map[types.NodeID]*ViewChangeMsg)
	if !p.inViewChange && len(p.watch) > 0 {
		p.progressArmed = false
		for key := range p.watch {
			p.armProgress(key)
			break
		}
	}
	p.env.SetTimer(core.TimerID{Name: timerRejuvenate}, p.opts.RejuvenationInterval)
}
