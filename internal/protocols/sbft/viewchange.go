package sbft

import (
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// View change: replicas that suspect the leader send signed view-change
// messages carrying every slot for which they hold a 2f+1 share
// certificate; the new leader collects 2f+1 of them and re-issues the
// surviving slots. A slot that fast-committed somewhere necessarily has a
// 2f+1 certificate in at least f+1 honest view-change senders, so decided
// batches survive (the SBFT paper's argument, compressed).

func (s *SBFT) startViewChange(v types.View) {
	if v <= s.view {
		v = s.view + 1
	}
	if s.inViewChange && v <= s.targetView {
		return
	}
	s.inViewChange = true
	s.targetView = v
	s.disarmProgress()

	vc := &ViewChangeMsg{
		NewView:  v,
		LastExec: s.env.Ledger().LastExecuted(),
		Replica:  s.env.ID(),
	}
	for _, cs := range s.commitCerts {
		if cs.Seq > s.env.Ledger().LowWater() {
			vc.Committed = append(vc.Committed, *cs)
		}
	}
	for seq, proof := range s.preparedProof {
		if seq > vc.LastExec {
			vc.Prepared = append(vc.Prepared, *proof)
		}
	}
	// The collector can also assemble fresh certificates from the sign
	// shares it holds for the current view.
	for seq, sl := range s.slots {
		if seq <= vc.LastExec || sl.batch == nil || s.preparedProof[seq] != nil {
			continue
		}
		if len(sl.signShares) >= s.env.Config().Quorum() {
			c := &crypto.Certificate{Digest: shareDigest("sign", s.view, seq, sl.digest)}
			for id, sig := range sl.signShares {
				c.Add(id, sig)
			}
			vc.Prepared = append(vc.Prepared, PreparedSlot{
				View: s.view, Seq: seq, Digest: sl.digest, Batch: sl.batch, Cert: c,
			})
		}
	}
	vc.Sig = s.env.Signer().Sign(vc.SigDigest())
	s.recordVC(s.env.ID(), vc)
	s.env.Broadcast(vc)
	s.env.SetTimer(core.TimerID{Name: timerVCRetry, View: v}, s.env.Config().ViewChangeTimeout)
}

func (s *SBFT) recordVC(from types.NodeID, m *ViewChangeMsg) {
	set := s.vcs[m.NewView]
	if set == nil {
		set = make(map[types.NodeID]*ViewChangeMsg)
		s.vcs[m.NewView] = set
	}
	set[from] = m
}

func (s *SBFT) onViewChange(from types.NodeID, m *ViewChangeMsg) {
	if m.Replica != from || m.NewView <= s.view {
		return
	}
	if !s.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	// Keep only slots whose certificates verify. Prepared certificates
	// may cover the "sign" or "commit" stage depending on which proof
	// the sender held.
	valid := m.Prepared[:0]
	for _, p := range m.Prepared {
		if p.Batch == nil || p.Batch.Digest() != p.Digest || p.Cert == nil {
			continue
		}
		if !s.verifyStageCert(p.View, p.Seq, p.Digest, p.Cert, s.env.Config().Quorum()) {
			continue
		}
		valid = append(valid, p)
	}
	m.Prepared = valid
	validC := m.Committed[:0]
	for _, cs := range m.Committed {
		if cs.Batch == nil || cs.Cert == nil {
			continue
		}
		need := s.env.Config().Quorum()
		stage := "commit"
		if cs.Fast {
			need = s.env.N()
			stage = "sign"
		}
		want := shareDigest(stage, cs.View, cs.Seq, cs.Batch.Digest())
		if cs.Cert.Digest != want || cs.Cert.Verify(s.env.Verifier(), need) != nil {
			continue
		}
		validC = append(validC, cs)
	}
	m.Committed = validC
	s.recordVC(from, m)

	// Join rule for liveness.
	if !s.inViewChange || m.NewView > s.targetView {
		ahead := 0
		for v, set := range s.vcs {
			if v > s.view {
				ahead += len(set)
			}
		}
		if ahead >= s.env.F()+1 {
			s.startViewChange(m.NewView)
		}
	}
	s.maybeNewView(m.NewView)
}

// verifyStageCert accepts a certificate over either share stage.
func (s *SBFT) verifyStageCert(v types.View, seq types.SeqNum, d types.Digest, cert *crypto.Certificate, quorum int) bool {
	for _, stage := range []string{"sign", "commit"} {
		if cert.Digest == shareDigest(stage, v, seq, d) {
			return cert.Verify(s.env.Verifier(), quorum) == nil
		}
	}
	return false
}

func (s *SBFT) maybeNewView(v types.View) {
	if s.env.Config().LeaderOf(v) != s.env.ID() || s.sentNewView[v] {
		return
	}
	set := s.vcs[v]
	if len(set) < s.env.Config().Quorum() {
		return
	}
	s.sentNewView[v] = true

	var base, maxS types.SeqNum
	committed := make(map[types.SeqNum]*CommittedSlot)
	chosen := make(map[types.SeqNum]*PreparedSlot)
	var vcList []*ViewChangeMsg
	for _, vc := range set {
		vcList = append(vcList, vc)
		if vc.LastExec > base {
			base = vc.LastExec
		}
		for i := range vc.Committed {
			cs := &vc.Committed[i]
			if committed[cs.Seq] == nil {
				committed[cs.Seq] = cs
			}
			if cs.Seq > maxS {
				maxS = cs.Seq
			}
		}
		for i := range vc.Prepared {
			p := &vc.Prepared[i]
			if cur := chosen[p.Seq]; cur == nil || p.View > cur.View {
				chosen[p.Seq] = p
			}
			if p.Seq > maxS {
				maxS = p.Seq
			}
		}
	}
	nv := &NewViewMsg{View: v, Base: base, ViewChanges: vcList}
	for seq := types.SeqNum(1); seq <= maxS; seq++ {
		if cs := committed[seq]; cs != nil {
			nv.Committed = append(nv.Committed, *cs)
		}
	}
	for seq := base + 1; seq <= maxS; seq++ {
		if committed[seq] != nil {
			continue // already carried with its certificate
		}
		var batch *types.Batch
		var digest types.Digest
		if p := chosen[seq]; p != nil {
			batch, digest = p.Batch, p.Digest
		} else {
			batch, digest = types.NewBatch(), types.ZeroDigest
		}
		pp := &PrePrepareMsg{View: v, Seq: seq, Digest: digest, Batch: batch}
		pp.Sig = s.env.Signer().Sign(pp.SigDigest())
		nv.PrePrepares = append(nv.PrePrepares, pp)
	}
	nv.Sig = s.env.Signer().Sign(nv.SigDigest())
	s.env.Broadcast(nv)
	s.installNewView(nv, maxS)
}

func (s *SBFT) onNewView(from types.NodeID, m *NewViewMsg) {
	if m.View < s.view || (m.View == s.view && !s.inViewChange) {
		return
	}
	if from != s.env.Config().LeaderOf(m.View) {
		return
	}
	if !s.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	if len(m.ViewChanges) < s.env.Config().Quorum() {
		return
	}
	seen := make(map[types.NodeID]bool)
	for _, vc := range m.ViewChanges {
		if vc.NewView != m.View || seen[vc.Replica] {
			return
		}
		if !s.env.Verifier().VerifySig(vc.Replica, vc.SigDigest(), vc.Sig) {
			return
		}
		seen[vc.Replica] = true
	}
	var maxS types.SeqNum
	for _, pp := range m.PrePrepares {
		if pp.Seq > maxS {
			maxS = pp.Seq
		}
	}
	s.installNewView(m, maxS)
}

func (s *SBFT) installNewView(m *NewViewMsg, maxS types.SeqNum) {
	s.view = m.View
	if s.nextSeq < m.Base {
		s.nextSeq = m.Base
	}
	s.inViewChange = false
	s.pool.Release()
	s.slots = make(map[types.SeqNum]*slot)
	for i := range m.Committed {
		cs := &m.Committed[i]
		if cs.Batch == nil || cs.Cert == nil {
			continue
		}
		if cs.Seq > s.env.Ledger().LastExecuted() {
			need := s.env.Config().Quorum()
			stage := "commit"
			if cs.Fast {
				need = s.env.N()
				stage = "sign"
			}
			want := shareDigest(stage, cs.View, cs.Seq, cs.Batch.Digest())
			if cs.Cert.Digest != want || cs.Cert.Verify(s.env.Verifier(), need) != nil {
				continue
			}
			s.commitCerts[cs.Seq] = cs
			proof := &types.CommitProof{View: cs.View, Seq: cs.Seq, Digest: cs.Batch.Digest(),
				Voters: append([]types.NodeID(nil), cs.Voters...)}
			s.env.Commit(cs.View, cs.Seq, cs.Batch, proof)
		}
		if cs.Seq > s.nextSeq {
			s.nextSeq = cs.Seq
		}
	}
	s.env.StopTimer(core.TimerID{Name: timerVCRetry, View: m.View})
	s.env.ViewChanged(m.View)
	if s.nextSeq < maxS {
		s.nextSeq = maxS
	}
	for v := range s.vcs {
		if v <= m.View {
			delete(s.vcs, v)
		}
	}
	for _, pp := range m.PrePrepares {
		if pp.Seq > s.env.Ledger().LastExecuted() {
			s.acceptPrePrepare(s.env.Config().LeaderOf(m.View), pp)
			if s.isLeader() {
				s.env.SetTimer(core.TimerID{Name: timerFastPath, Seq: pp.Seq, View: m.View}, s.opts.FastPathWait)
			}
		}
	}
	if len(s.watch) > 0 {
		s.armProgress()
	}
	s.maybePropose()
}
