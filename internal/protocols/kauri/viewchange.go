package kauri

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// View change = tree reconfiguration: the next view rotates every
// replica's tree position, so a faulty internal node ends up elsewhere
// (assumption a3's escape hatch). Prepared slots travel with their
// prepare certificates; the new root re-proposes the highest-certified
// digest per slot and carries committed slots for stragglers.

func (k *Kauri) startViewChange(v types.View) {
	if v <= k.view {
		v = k.view + 1
	}
	if k.inViewChange && v <= k.targetView {
		return
	}
	k.inViewChange = true
	k.targetView = v
	k.disarmProgress()

	vc := &ViewChangeMsg{
		NewView: v,
		Base:    k.env.Ledger().LastExecuted(),
		Replica: k.env.ID(),
	}
	for _, e := range k.env.Ledger().CommittedAbove(k.env.Ledger().LowWater()) {
		cs := CommittedSlot{View: e.View, Seq: e.Seq, Batch: e.Batch}
		if e.Proof != nil {
			cs.Voters = e.Proof.Voters
		}
		vc.Committed = append(vc.Committed, cs)
	}
	for seq, proof := range k.preparedProof {
		if seq > vc.Base {
			vc.Prepared = append(vc.Prepared, *proof)
		}
	}
	vc.Sig = k.env.Signer().Sign(vc.SigDigest())
	k.recordVC(k.env.ID(), vc)
	k.env.Broadcast(vc)
	k.env.SetTimer(core.TimerID{Name: timerVCRetry, View: v}, k.env.Config().ViewChangeTimeout)
}

func (k *Kauri) recordVC(from types.NodeID, m *ViewChangeMsg) {
	set := k.vcs[m.NewView]
	if set == nil {
		set = make(map[types.NodeID]*ViewChangeMsg)
		k.vcs[m.NewView] = set
	}
	set[from] = m
}

func (k *Kauri) onViewChange(from types.NodeID, m *ViewChangeMsg) {
	if m.Replica != from || m.NewView <= k.view {
		return
	}
	if !k.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	valid := m.Prepared[:0]
	for _, s := range m.Prepared {
		if s.Batch == nil || s.Batch.Digest() != s.Digest || s.Cert == nil {
			continue
		}
		want := shareDigest("prepare", s.View, s.Seq, s.Digest)
		if s.Cert.Digest != want || s.Cert.Verify(k.env.Verifier(), k.env.Config().Quorum()) != nil {
			continue
		}
		valid = append(valid, s)
	}
	m.Prepared = valid
	k.recordVC(from, m)

	if !k.inViewChange || m.NewView > k.targetView {
		ahead := 0
		for v, set := range k.vcs {
			if v > k.view {
				ahead += len(set)
			}
		}
		if ahead >= k.env.F()+1 {
			k.startViewChange(m.NewView)
		}
	}
	k.maybeNewView(m.NewView)
}

func (k *Kauri) maybeNewView(v types.View) {
	if k.replicaAt(v, 0) != k.env.ID() || k.sentNewView[v] {
		return
	}
	set := k.vcs[v]
	if len(set) < k.env.Config().Quorum() {
		return
	}
	k.sentNewView[v] = true

	var base, maxS types.SeqNum
	committed := make(map[types.SeqNum]*CommittedSlot)
	chosen := make(map[types.SeqNum]*PreparedSlot)
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
		for i := range vc.Prepared {
			s := &vc.Prepared[i]
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
		prop := &ProposalMsg{View: v, Seq: seq, Digest: digest, Batch: batch}
		prop.Sig = k.env.Signer().Sign(prop.SigDigest())
		nv.Proposals = append(nv.Proposals, prop)
	}
	nv.Sig = k.env.Signer().Sign(nv.SigDigest())
	k.env.Broadcast(nv)
	k.installNewView(nv)
}

func (k *Kauri) onNewView(from types.NodeID, m *NewViewMsg) {
	if m.View < k.view || (m.View == k.view && !k.inViewChange) {
		return
	}
	if from != k.replicaAt(m.View, 0) {
		return
	}
	if !k.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	if len(m.ViewChanges) < k.env.Config().Quorum() {
		return
	}
	seen := make(map[types.NodeID]bool)
	for _, vc := range m.ViewChanges {
		if vc.NewView != m.View || seen[vc.Replica] {
			return
		}
		if !k.env.Verifier().VerifySig(vc.Replica, vc.SigDigest(), vc.Sig) {
			return
		}
		seen[vc.Replica] = true
	}
	k.installNewView(m)
}

func (k *Kauri) installNewView(m *NewViewMsg) {
	k.view = m.View
	k.inViewChange = false
	k.pool.Release()
	k.slots = make(map[types.SeqNum]*slot)
	k.env.StopTimer(core.TimerID{Name: timerVCRetry, View: m.View})
	k.env.ViewChanged(m.View)

	if k.nextSeq < m.Base {
		k.nextSeq = m.Base
	}
	for i := range m.Committed {
		s := &m.Committed[i]
		if s.Seq > k.env.Ledger().LastExecuted() {
			proof := &types.CommitProof{View: s.View, Seq: s.Seq, Digest: s.Batch.Digest(),
				Voters: append([]types.NodeID(nil), s.Voters...)}
			k.env.Commit(s.View, s.Seq, s.Batch, proof)
		}
	}
	for _, prop := range m.Proposals {
		if prop.Seq > k.nextSeq {
			k.nextSeq = prop.Seq
		}
		if prop.Seq > k.env.Ledger().LastExecuted() {
			k.acceptProposal(prop)
		}
	}
	for v := range k.vcs {
		if v <= m.View {
			delete(k.vcs, v)
		}
	}
	if len(k.watch) > 0 {
		k.armProgress()
	}
	k.maybePropose()
}
