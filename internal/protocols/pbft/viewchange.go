package pbft

import (
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// This file implements PBFT's view-change stage (dimension P3, stable
// leader): replicas that suspect the leader exchange signed view-change
// messages carrying their prepared certificates; the designated leader of
// the next view collects 2f+1 of them and installs the view with a
// new-view message that re-issues every prepared slot, filling gaps with
// no-op batches.

func (p *PBFT) startViewChange(v types.View) {
	if v <= p.view && p.inViewChange {
		return
	}
	if v <= p.view {
		v = p.view + 1
	}
	if p.inViewChange && v <= p.targetView {
		return
	}
	p.inViewChange = true
	p.targetView = v
	p.batchArmed = false
	p.env.StopTimer(core.TimerID{Name: timerBatch})
	p.disarmProgress()

	vc := &ViewChangeMsg{
		NewView:    v,
		LastStable: p.env.Ledger().LowWater(),
		LastExec:   p.env.Ledger().LastExecuted(),
		Replica:    p.env.ID(),
	}
	for _, proof := range p.preparedProof {
		if proof.Seq > vc.LastStable {
			vc.Prepared = append(vc.Prepared, *proof)
		}
	}
	vc.Sig = p.env.Signer().Sign(vc.SigDigest())
	p.recordViewChange(p.env.ID(), vc)
	p.env.Broadcast(vc)
	// If this view change stalls, escalate (τ2 with backoff).
	p.env.SetTimer(core.TimerID{Name: timerViewChange, View: v}, p.vcTimeout)
}

func (p *PBFT) recordViewChange(from types.NodeID, m *ViewChangeMsg) {
	set := p.vcs[m.NewView]
	if set == nil {
		set = make(map[types.NodeID]*ViewChangeMsg)
		p.vcs[m.NewView] = set
	}
	set[from] = m
}

func (p *PBFT) onViewChange(from types.NodeID, m *ViewChangeMsg) {
	if m.Replica != from || m.NewView <= p.view {
		return
	}
	if !p.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	// Validate carried prepared proofs; discard forged ones. A proof
	// needs the leader's pre-prepare signature plus 2f backup prepare
	// signatures over the same digest. In MAC mode prepare votes are
	// not transferable (no non-repudiation — exactly DC 11's point);
	// we then rely on the signature over the whole view-change message,
	// the simplification PBFT's view-change-ack machinery papers over.
	macMode := p.env.Scheme() == crypto.SchemeMAC
	valid := m.Prepared[:0]
	for _, pp := range m.Prepared {
		if pp.Batch == nil || pp.Batch.Digest() != pp.Digest {
			continue
		}
		if macMode {
			valid = append(valid, pp)
			continue
		}
		if pp.Cert == nil || pp.Cert.Size() < 2*p.env.F() {
			continue
		}
		leader := p.env.Config().LeaderOf(pp.View)
		ppProbe := &PrePrepareMsg{View: pp.View, Seq: pp.Seq, Digest: pp.Digest}
		ok := p.env.Verifier().VerifySig(leader, ppProbe.SigDigest(), pp.LeaderSig)
		if ok {
			probe := &PrepareMsg{View: pp.View, Seq: pp.Seq, Digest: pp.Digest}
			for i, signer := range pp.Cert.Signers {
				probe.Replica = signer
				if signer == leader ||
					!p.env.Verifier().VerifySig(signer, probe.SigDigest(), pp.Cert.Sigs[i]) {
					ok = false
					break
				}
			}
		}
		if ok {
			valid = append(valid, pp)
		}
	}
	m.Prepared = valid
	p.recordViewChange(from, m)

	// Liveness join rule: if f+1 replicas are ahead of us, join the
	// smallest such view so a partitioned minority cannot stall us.
	if !p.inViewChange || m.NewView > p.targetView {
		ahead := 0
		minView := m.NewView
		for v, set := range p.vcs {
			if v > p.view {
				for id := range set {
					if id != p.env.ID() {
						ahead++
					}
				}
				if v < minView {
					minView = v
				}
			}
		}
		if ahead >= p.env.F()+1 && (!p.inViewChange || minView > p.targetView) {
			p.startViewChange(minView)
		}
	}
	p.maybeSendNewView(m.NewView)
}

func (p *PBFT) maybeSendNewView(v types.View) {
	if p.env.Config().LeaderOf(v) != p.env.ID() || p.sentNewView[v] {
		return
	}
	set := p.vcs[v]
	if len(set) < p.env.Config().Quorum() {
		return
	}
	p.sentNewView[v] = true

	// Compute min-s (highest stable checkpoint) and collect, per slot,
	// the prepared proof with the highest view.
	var minS, maxS, maxExec types.SeqNum
	chosen := make(map[types.SeqNum]*PreparedProof)
	var vcList []*ViewChangeMsg
	for _, vc := range set {
		vcList = append(vcList, vc)
		if vc.LastStable > minS {
			minS = vc.LastStable
		}
		if vc.LastExec > maxExec {
			maxExec = vc.LastExec
		}
		for i := range vc.Prepared {
			pp := &vc.Prepared[i]
			if cur := chosen[pp.Seq]; cur == nil || pp.View > cur.View {
				chosen[pp.Seq] = pp
			}
			if pp.Seq > maxS {
				maxS = pp.Seq
			}
		}
	}

	nv := &NewViewMsg{View: v, Base: maxExec, ViewChanges: vcList}
	for s := minS + 1; s <= maxS; s++ {
		var batch *types.Batch
		var digest types.Digest
		if pp := chosen[s]; pp != nil && pp.Seq > minS {
			batch, digest = pp.Batch, pp.Digest
		} else {
			batch, digest = types.NewBatch(), types.ZeroDigest // no-op filler
		}
		repp := &PrePrepareMsg{View: v, Seq: s, Digest: digest, Batch: batch}
		repp.Sig = p.env.Signer().Sign(repp.SigDigest())
		nv.PrePrepares = append(nv.PrePrepares, repp)
	}
	nv.Sig = p.env.Signer().Sign(nv.SigDigest())
	p.env.Broadcast(nv)
	p.installNewView(nv, maxS)
}

func (p *PBFT) onNewView(from types.NodeID, m *NewViewMsg) {
	if m.View < p.view || (m.View == p.view && !p.inViewChange) {
		return
	}
	if from != p.env.Config().LeaderOf(m.View) {
		return
	}
	if !p.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	// The new-view must be justified by 2f+1 signed view-changes.
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
	var maxS types.SeqNum
	for _, pp := range m.PrePrepares {
		if pp.Seq > maxS {
			maxS = pp.Seq
		}
	}
	p.installNewView(m, maxS)
}

func (p *PBFT) installNewView(m *NewViewMsg, maxS types.SeqNum) {
	p.view = m.View
	// The new view numbers on from the highest slot the quorum prepared or
	// executed — lowering nextSeq if the old view sequenced slots above
	// it. Such a slot was prepared by no replica in the 2f+1 view-change
	// quorum, so it committed nowhere, and keeping its number would leave
	// a hole below every new proposal that no replica ever fills.
	p.nextSeq = max(maxS, m.Base, p.env.Ledger().LastExecuted())
	if m.Base > p.env.Ledger().LastExecuted() {
		// We are behind the quorum's execution point: fetch the
		// committed slots we missed during the view churn.
		p.requestCatchup()
	}
	p.inViewChange = false
	// Proposals of older views are void; anything still pending gets
	// re-proposed (runtime-level dedup makes re-execution impossible).
	p.inFlight = make(map[types.RequestKey]bool)
	p.vcTimeout = p.env.Config().ViewChangeTimeout
	p.env.StopTimer(core.TimerID{Name: timerViewChange, View: m.View})
	p.env.ViewChanged(m.View)
	for v := range p.vcs {
		if v <= m.View {
			delete(p.vcs, v)
		}
	}
	// Adopt the re-issued pre-prepares: they flow through the normal
	// acceptance path, so backups prepare and commit them again in the
	// new view.
	for _, pp := range m.PrePrepares {
		if pp.Seq > p.env.Ledger().LastExecuted() {
			p.acceptPrePrepare(pp)
		}
	}
	for key := range p.watch {
		p.armProgress(key)
		break
	}
	// A new leader resumes proposing its own backlog.
	p.maybePropose()
}
