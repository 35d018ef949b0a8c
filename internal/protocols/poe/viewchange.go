package poe

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// View change: replicas ship certified slots above their durable commit
// point. A slot some client accepted has a 2f+1 certificate held by at
// least f+1 honest replicas, so the new leader (which collects 2f+1
// view-changes) always sees at least one certified copy and re-proposes
// it; speculation that certified under a Byzantine-assisted quorum but
// lost the view change is rolled back — the DC7 trade-off.

func (p *PoE) startViewChange(v types.View) {
	if v <= p.view {
		v = p.view + 1
	}
	if p.inViewChange && v <= p.targetView {
		return
	}
	p.inViewChange = true
	p.targetView = v
	p.disarmProgress()

	vc := &ViewChangeMsg{
		NewView: v,
		Base:    p.env.Ledger().LastExecuted(),
		Replica: p.env.ID(),
	}
	for _, e := range p.env.Ledger().CommittedAbove(p.env.Ledger().LowWater()) {
		cs := CommittedSlot{View: e.View, Seq: e.Seq, Batch: e.Batch}
		if e.Proof != nil {
			cs.Voters = e.Proof.Voters
		}
		vc.Committed = append(vc.Committed, cs)
	}
	for seq, sl := range p.slots {
		if seq > vc.Base && sl.cert != nil && sl.batch != nil {
			vc.Slots = append(vc.Slots, CertifiedSlot{
				View: p.view, Seq: seq, Digest: sl.digest, Batch: sl.batch, Cert: sl.cert,
			})
		}
	}
	vc.Sig = p.env.Signer().Sign(vc.SigDigest())
	p.recordVC(p.env.ID(), vc)
	p.env.Broadcast(vc)
	p.env.SetTimer(core.TimerID{Name: timerVCRetry, View: v}, p.env.Config().ViewChangeTimeout)
}

func (p *PoE) recordVC(from types.NodeID, m *ViewChangeMsg) {
	set := p.vcs[m.NewView]
	if set == nil {
		set = make(map[types.NodeID]*ViewChangeMsg)
		p.vcs[m.NewView] = set
	}
	set[from] = m
}

func (p *PoE) onViewChange(from types.NodeID, m *ViewChangeMsg) {
	if m.Replica != from || m.NewView <= p.view {
		return
	}
	if !p.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	valid := m.Slots[:0]
	for _, s := range m.Slots {
		if s.Batch == nil || s.Batch.Digest() != s.Digest || s.Cert == nil {
			continue
		}
		want := shareDigest(s.View, s.Seq, s.Digest)
		if s.Cert.Digest != want || s.Cert.Verify(p.env.Verifier(), p.env.Config().Quorum()) != nil {
			continue
		}
		valid = append(valid, s)
	}
	m.Slots = valid
	p.recordVC(from, m)

	if !p.inViewChange || m.NewView > p.targetView {
		ahead := 0
		for v, set := range p.vcs {
			if v > p.view {
				ahead += len(set)
			}
		}
		if ahead >= p.env.F()+1 {
			p.startViewChange(m.NewView)
		}
	}
	p.maybeNewView(m.NewView)
}

func (p *PoE) maybeNewView(v types.View) {
	if p.env.Config().LeaderOf(v) != p.env.ID() || p.sentNewView[v] {
		return
	}
	set := p.vcs[v]
	if len(set) < p.env.Config().Quorum() {
		return
	}
	p.sentNewView[v] = true

	var base, maxS types.SeqNum
	committed := make(map[types.SeqNum]*CommittedSlot)
	chosen := make(map[types.SeqNum]*CertifiedSlot)
	var vcList []*ViewChangeMsg
	for _, vc := range set {
		vcList = append(vcList, vc)
		if vc.Base > base {
			base = vc.Base
		}
		for i := range vc.Committed {
			s := &vc.Committed[i]
			if committed[s.Seq] == nil {
				committed[s.Seq] = s
			}
		}
		for i := range vc.Slots {
			s := &vc.Slots[i]
			if cur := chosen[s.Seq]; cur == nil || s.View > cur.View {
				chosen[s.Seq] = s
			}
			if s.Seq > maxS {
				maxS = s.Seq
			}
		}
	}
	nv := &NewViewMsg{View: v, Base: base, ViewChanges: vcList}
	for seq := types.SeqNum(1); seq <= base; seq++ {
		if s := committed[seq]; s != nil {
			nv.Committed = append(nv.Committed, *s)
		}
	}
	for seq := base + 1; seq <= maxS; seq++ {
		var batch *types.Batch
		digest := types.ZeroDigest
		if s := chosen[seq]; s != nil {
			batch, digest = s.Batch, s.Digest
		} else {
			batch = types.NewBatch()
		}
		pm := &ProposeMsg{View: v, Seq: seq, Digest: digest, Batch: batch}
		pm.Sig = p.env.Signer().Sign(pm.SigDigest())
		nv.Proposals = append(nv.Proposals, pm)
	}
	nv.Sig = p.env.Signer().Sign(nv.SigDigest())
	p.env.Broadcast(nv)
	p.installNewView(nv)
}

func (p *PoE) onNewView(from types.NodeID, m *NewViewMsg) {
	if m.View < p.view || (m.View == p.view && !p.inViewChange) {
		return
	}
	if from != p.env.Config().LeaderOf(m.View) {
		return
	}
	if !p.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	if len(m.ViewChanges) < p.env.Config().Quorum() {
		return
	}
	seen := make(map[types.NodeID]bool)
	for _, vc := range m.ViewChanges {
		if vc.NewView != m.View || seen[vc.Replica] {
			return
		}
		if !p.env.Verifier().VerifySig(vc.Replica, vc.SigDigest(), vc.Sig) {
			return
		}
		seen[vc.Replica] = true
	}
	p.installNewView(m)
}

func (p *PoE) installNewView(m *NewViewMsg) {
	p.view = m.View
	p.inViewChange = false
	p.pool.Release()
	p.env.StopTimer(core.TimerID{Name: timerVCRetry, View: m.View})
	p.env.ViewChanged(m.View)

	// Roll back uncommitted speculation; the decided order replaces it.
	lastExec := p.env.Ledger().LastExecuted()
	p.env.RollbackSpecAbove(lastExec)
	p.slots = make(map[types.SeqNum]*slot)
	p.ready = make(map[types.SeqNum]*CertifyMsg)
	p.nextSeq = lastExec
	if p.nextSeq < m.Base {
		p.nextSeq = m.Base
	}
	for i := range m.Committed {
		s := &m.Committed[i]
		if s.Seq > p.env.Ledger().LastExecuted() {
			proof := &types.CommitProof{View: s.View, Seq: s.Seq, Digest: s.Batch.Digest(),
				Voters: append([]types.NodeID(nil), s.Voters...)}
			p.env.Commit(s.View, s.Seq, s.Batch, proof)
		}
	}

	for _, pm := range m.Proposals {
		if pm.Seq > p.nextSeq {
			p.nextSeq = pm.Seq
		}
		if pm.Seq > p.env.Ledger().LastExecuted() {
			p.acceptPropose(pm)
		}
	}
	for v := range p.vcs {
		if v <= m.View {
			delete(p.vcs, v)
		}
	}
	if len(p.watch) > 0 {
		p.armProgress()
	}
	p.maybePropose()
}
