package zyzzyva

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// View change: replicas ship their speculative histories above their
// commit point; the new leader keeps, per slot, any digest claimed by at
// least f+1 view-change senders (a slot a client completed — fast path
// 3f+1 or certificate 2f+1 — always has f+1 honest witnesses), fills the
// rest with no-ops, and re-issues order-requests in the new view.
// Replicas roll back conflicting speculation through the runtime's undo
// log — exactly the rollback cost design choice 8 warns about.

func (z *Zyzzyva) startViewChange(v types.View) {
	if v <= z.view {
		v = z.view + 1
	}
	if z.inViewChange && v <= z.targetView {
		return
	}
	z.inViewChange = true
	z.targetView = v
	z.disarmProgress()

	vc := &ViewChangeMsg{
		NewView: v,
		Base:    z.env.Ledger().LastExecuted(),
		Replica: z.env.ID(),
	}
	for _, e := range z.env.Ledger().CommittedAbove(z.env.Ledger().LowWater()) {
		cs := CommittedSlot{View: e.View, Seq: e.Seq, Batch: e.Batch}
		if e.Proof != nil {
			cs.Voters = e.Proof.Voters
		}
		vc.Committed = append(vc.Committed, cs)
	}
	for seq, slot := range z.specs {
		if seq > vc.Base {
			vc.Slots = append(vc.Slots, *slot)
		}
	}
	for seq, cert := range z.clientCerts {
		if seq > vc.Base {
			vc.Certs = append(vc.Certs, cert)
		}
	}
	vc.Sig = z.env.Signer().Sign(vc.SigDigest())
	z.recordVC(z.env.ID(), vc)
	z.env.Broadcast(vc)
	z.env.SetTimer(core.TimerID{Name: timerVCRetry, View: v}, z.env.Config().ViewChangeTimeout)
}

func (z *Zyzzyva) recordVC(from types.NodeID, m *ViewChangeMsg) {
	set := z.vcs[m.NewView]
	if set == nil {
		set = make(map[types.NodeID]*ViewChangeMsg)
		z.vcs[m.NewView] = set
	}
	set[from] = m
}

func (z *Zyzzyva) onViewChange(from types.NodeID, m *ViewChangeMsg) {
	if m.Replica != from || m.NewView <= z.view {
		return
	}
	if !z.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	valid := m.Slots[:0]
	for _, s := range m.Slots {
		if s.Batch != nil && s.Batch.Digest() == s.Digest {
			valid = append(valid, s)
		}
	}
	m.Slots = valid
	certs := m.Certs[:0]
	for _, cert := range m.Certs {
		if z.verifyClientCert(cert) {
			certs = append(certs, cert)
		}
	}
	m.Certs = certs
	z.recordVC(from, m)

	if !z.inViewChange || m.NewView > z.targetView {
		ahead := 0
		for v, set := range z.vcs {
			if v > z.view {
				ahead += len(set)
			}
		}
		if ahead >= z.env.F()+1 {
			z.startViewChange(m.NewView)
		}
	}
	z.maybeNewView(m.NewView)
}

func (z *Zyzzyva) maybeNewView(v types.View) {
	if z.env.Config().LeaderOf(v) != z.env.ID() || z.sentNewView[v] {
		return
	}
	set := z.vcs[v]
	if len(set) < z.quorum() {
		return
	}
	z.sentNewView[v] = true

	var base, maxS types.SeqNum
	committed := make(map[types.SeqNum]*CommittedSlot)
	certified := make(map[types.SeqNum]*CommitMsg)
	votes := make(map[types.SeqNum]map[types.Digest]int)
	batches := make(map[types.SeqNum]map[types.Digest]*types.Batch)
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
		for _, cert := range vc.Certs {
			if cur := certified[cert.Seq]; cur == nil || cert.View > cur.View {
				certified[cert.Seq] = cert
			}
			if cert.Seq > maxS {
				maxS = cert.Seq
			}
		}
		for _, s := range vc.Slots {
			if votes[s.Seq] == nil {
				votes[s.Seq] = make(map[types.Digest]int)
				batches[s.Seq] = make(map[types.Digest]*types.Batch)
			}
			votes[s.Seq][s.Digest]++
			batches[s.Seq][s.Digest] = s.Batch
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
		// A client commit certificate pins the slot's content: the
		// client proved 2f+1 replicas speculated this exact history,
		// so at least f+1 honest spec slots carry its batch.
		if cert := certified[seq]; cert != nil {
			for d, b := range batches[seq] {
				if z.batchMatchesCert(b, cert) {
					digest, batch = d, b
					break
				}
			}
		}
		if batch == nil {
			best := 0
			for d, n := range votes[seq] {
				// f+1 witnesses pin a possibly-completed slot; below
				// that keep the most-witnessed digest (it can only
				// help liveness).
				if n > best {
					best, digest, batch = n, d, batches[seq][d]
				}
			}
		}
		if batch == nil {
			batch = types.NewBatch()
			digest = types.ZeroDigest
		}
		or := &OrderReqMsg{View: v, Seq: seq, Digest: digest, Batch: batch}
		or.Sig = z.env.Signer().Sign(or.SigDigest())
		nv.OrderReqs = append(nv.OrderReqs, or)
	}
	nv.Sig = z.env.Signer().Sign(nv.SigDigest())
	z.env.Broadcast(nv)
	z.installNewView(nv)
}

// batchMatchesCert reports whether a spec batch contains the certified
// client request (the certificate identifies the slot's request).
func (z *Zyzzyva) batchMatchesCert(b *types.Batch, cert *CommitMsg) bool {
	if b == nil {
		return false
	}
	for _, req := range b.Requests {
		if req.Client == cert.Client && req.ClientSeq == cert.ClientSeq {
			return true
		}
	}
	return false
}

func (z *Zyzzyva) onNewView(from types.NodeID, m *NewViewMsg) {
	if m.View < z.view || (m.View == z.view && !z.inViewChange) {
		return
	}
	if from != z.env.Config().LeaderOf(m.View) {
		return
	}
	if !z.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	if len(m.ViewChanges) < z.quorum() {
		return
	}
	seen := make(map[types.NodeID]bool)
	for _, vc := range m.ViewChanges {
		if vc.NewView != m.View || seen[vc.Replica] {
			return
		}
		if !z.env.Verifier().VerifySig(vc.Replica, vc.SigDigest(), vc.Sig) {
			return
		}
		seen[vc.Replica] = true
	}
	z.installNewView(m)
}

func (z *Zyzzyva) installNewView(m *NewViewMsg) {
	z.view = m.View
	z.inViewChange = false
	z.pool.Release()
	z.env.StopTimer(core.TimerID{Name: timerVCRetry, View: m.View})
	z.env.ViewChanged(m.View)

	// Roll back all uncommitted speculation; the new view's order
	// replaces it (the runtime restores state and history digests).
	committed := z.env.Ledger().LastExecuted()
	z.env.RollbackSpecAbove(committed)
	z.specs = make(map[types.SeqNum]*SpecSlot)
	z.buffer = make(map[types.SeqNum]*OrderReqMsg)

	if z.nextSeq < m.Base {
		z.nextSeq = m.Base
	}
	for i := range m.Committed {
		s := &m.Committed[i]
		if s.Seq > z.env.Ledger().LastExecuted() {
			proof := &types.CommitProof{View: s.View, Seq: s.Seq, Digest: s.Batch.Digest(),
				Voters: append([]types.NodeID(nil), s.Voters...)}
			z.env.Commit(s.View, s.Seq, s.Batch, proof)
		}
	}
	committed = z.env.Ledger().LastExecuted()

	var maxS types.SeqNum
	for _, or := range m.OrderReqs {
		if or.Seq > maxS {
			maxS = or.Seq
		}
		if or.Seq > committed {
			z.acceptOrderReq(or)
		}
	}
	if z.nextSeq < maxS {
		z.nextSeq = maxS
	}
	for v := range z.vcs {
		if v <= m.View {
			delete(z.vcs, v)
		}
	}
	if len(z.watch) > 0 {
		z.armProgress()
	}
	z.maybePropose()
}
