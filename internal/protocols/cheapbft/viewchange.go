package cheapbft

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// View change doubles as CheapBFT's fallback switch: rotating the view
// rotates the active set, benching a faulty active replica. View-change
// messages carry both retained committed slots (with their proofs, so
// replicas that were passive catch up) and voted-but-uncommitted slots
// (picked by plurality, which preserves any slot a client accepted: a
// committed slot has all 2f+1 active voters, at least f+1 of them honest
// and present in any 2f+1 view-change quorum).

func (c *CheapBFT) startViewChange(v types.View) {
	if v <= c.view {
		v = c.view + 1
	}
	if c.inViewChange && v <= c.targetView {
		return
	}
	c.inViewChange = true
	c.targetView = v
	c.disarmProgress()

	vc := &ViewChangeMsg{
		NewView: v,
		Base:    c.env.Ledger().LastExecuted(),
		Replica: c.env.ID(),
	}
	for _, e := range c.env.Ledger().CommittedAbove(c.env.Ledger().LowWater()) {
		cs := CommittedSlot{View: e.View, Seq: e.Seq, Batch: e.Batch}
		if e.Proof != nil {
			cs.Voters = e.Proof.Voters
		}
		vc.Committed = append(vc.Committed, cs)
	}
	for seq, sl := range c.slots {
		if seq > vc.Base && sl.proposed && !sl.done {
			vc.Prepared = append(vc.Prepared, PreparedSlot{
				View: c.view, Seq: seq, Digest: sl.digest, Batch: sl.batch,
			})
		}
	}
	vc.Sig = c.env.Signer().Sign(vc.SigDigest())
	c.recordVC(c.env.ID(), vc)
	c.env.Broadcast(vc)
	c.env.SetTimer(core.TimerID{Name: timerVCRetry, View: v}, c.env.Config().ViewChangeTimeout)
}

func (c *CheapBFT) recordVC(from types.NodeID, m *ViewChangeMsg) {
	set := c.vcs[m.NewView]
	if set == nil {
		set = make(map[types.NodeID]*ViewChangeMsg)
		c.vcs[m.NewView] = set
	}
	set[from] = m
}

func (c *CheapBFT) onViewChange(from types.NodeID, m *ViewChangeMsg) {
	if m.Replica != from || m.NewView <= c.view {
		return
	}
	if !c.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	c.recordVC(from, m)
	if !c.inViewChange || m.NewView > c.targetView {
		ahead := 0
		for v, set := range c.vcs {
			if v > c.view {
				ahead += len(set)
			}
		}
		if ahead >= c.env.F()+1 {
			c.startViewChange(m.NewView)
		}
	}
	c.maybeNewView(m.NewView)
}

func (c *CheapBFT) maybeNewView(v types.View) {
	if c.env.Config().LeaderOf(v) != c.env.ID() || c.sentNewView[v] {
		return
	}
	set := c.vcs[v]
	if len(set) < c.env.Config().Quorum() {
		return
	}
	c.sentNewView[v] = true

	var base, maxS types.SeqNum
	committed := make(map[types.SeqNum]*CommittedSlot)
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
			if cur := committed[s.Seq]; cur == nil {
				committed[s.Seq] = s
			}
			if s.Seq > maxS {
				maxS = s.Seq
			}
		}
		for _, s := range vc.Prepared {
			if s.Batch == nil || s.Batch.Digest() != s.Digest {
				continue
			}
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
	for seq := types.SeqNum(1); seq <= maxS; seq++ {
		if s := committed[seq]; s != nil {
			nv.Committed = append(nv.Committed, *s)
			continue
		}
		if seq <= base {
			continue
		}
		var batch *types.Batch
		digest := types.ZeroDigest
		best := 0
		for d, n := range votes[seq] {
			if n > best {
				best, digest, batch = n, d, batches[seq][d]
			}
		}
		if batch == nil {
			batch, digest = types.NewBatch(), types.ZeroDigest
		}
		pm := &ProposeMsg{View: v, Seq: seq, Digest: digest, Batch: batch}
		pm.Sig = c.env.Signer().Sign(pm.SigDigest())
		nv.Proposals = append(nv.Proposals, pm)
	}
	nv.Sig = c.env.Signer().Sign(nv.SigDigest())
	c.env.Broadcast(nv)
	c.installNewView(nv)
}

func (c *CheapBFT) onNewView(from types.NodeID, m *NewViewMsg) {
	if m.View < c.view || (m.View == c.view && !c.inViewChange) {
		return
	}
	if from != c.env.Config().LeaderOf(m.View) {
		return
	}
	if !c.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	if len(m.ViewChanges) < c.env.Config().Quorum() {
		return
	}
	seen := make(map[types.NodeID]bool)
	for _, vc := range m.ViewChanges {
		if vc.NewView != m.View || seen[vc.Replica] {
			return
		}
		if !c.env.Verifier().VerifySig(vc.Replica, vc.SigDigest(), vc.Sig) {
			return
		}
		seen[vc.Replica] = true
	}
	c.installNewView(m)
}

func (c *CheapBFT) installNewView(m *NewViewMsg) {
	c.view = m.View
	c.inViewChange = false
	c.pool.Release()
	c.slots = make(map[types.SeqNum]*slot)
	c.env.StopTimer(core.TimerID{Name: timerVCRetry, View: m.View})
	c.env.ViewChanged(m.View)

	if c.nextSeq < m.Base {
		c.nextSeq = m.Base
	}
	for i := range m.Committed {
		s := &m.Committed[i]
		if s.Seq > c.env.Ledger().LastExecuted() {
			proof := &types.CommitProof{View: s.View, Seq: s.Seq, Digest: s.Batch.Digest(),
				Voters: append([]types.NodeID(nil), s.Voters...)}
			c.env.Commit(s.View, s.Seq, s.Batch, proof)
		}
		if s.Seq > c.nextSeq {
			c.nextSeq = s.Seq
		}
	}
	for _, pm := range m.Proposals {
		if pm.Seq > c.nextSeq {
			c.nextSeq = pm.Seq
		}
		if pm.Seq > c.env.Ledger().LastExecuted() {
			c.acceptPropose(pm)
		}
	}
	for v := range c.vcs {
		if v <= m.View {
			delete(c.vcs, v)
		}
	}
	if len(c.watch) > 0 {
		c.armProgress()
	}
	c.maybePropose()
}
