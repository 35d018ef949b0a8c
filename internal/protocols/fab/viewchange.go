package fab

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// View change: the new leader collects n−f view-change messages, each
// carrying the sender's accepted slots, and re-proposes per slot the
// digest with the most witnesses. A committed slot (4f+1 accepts)
// intersects any n−f view-change quorum in at least 3f+1 replicas, of
// which at least 2f+1 are honest — always a strict plurality over any
// competing digest (at most f Byzantine claims plus honest replicas that
// accepted nothing), so decided slots survive.

func (f *FaB) startViewChange(v types.View) {
	if v <= f.view {
		v = f.view + 1
	}
	if f.inViewChange && v <= f.targetView {
		return
	}
	f.inViewChange = true
	f.targetView = v
	f.disarmProgress()

	vc := &ViewChangeMsg{
		NewView: v,
		Base:    f.env.Ledger().LastExecuted(),
		Replica: f.env.ID(),
	}
	for _, e := range f.env.Ledger().CommittedAbove(f.env.Ledger().LowWater()) {
		cs := CommittedSlot{View: e.View, Seq: e.Seq, Batch: e.Batch}
		if e.Proof != nil {
			cs.Voters = e.Proof.Voters
		}
		vc.Committed = append(vc.Committed, cs)
	}
	for seq, sl := range f.slots {
		if seq > vc.Base && sl.proposed {
			vc.Accepted = append(vc.Accepted, AcceptedSlot{
				View: f.view, Seq: seq, Digest: sl.digest, Batch: sl.batch,
			})
		}
	}
	vc.Sig = f.env.Signer().Sign(vc.SigDigest())
	f.recordVC(f.env.ID(), vc)
	f.env.Broadcast(vc)
	f.env.SetTimer(core.TimerID{Name: timerVCRetry, View: v}, f.env.Config().ViewChangeTimeout)
}

func (f *FaB) recordVC(from types.NodeID, m *ViewChangeMsg) {
	set := f.vcs[m.NewView]
	if set == nil {
		set = make(map[types.NodeID]*ViewChangeMsg)
		f.vcs[m.NewView] = set
	}
	set[from] = m
}

func (f *FaB) onViewChange(from types.NodeID, m *ViewChangeMsg) {
	if m.Replica != from || m.NewView <= f.view {
		return
	}
	if !f.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	valid := m.Accepted[:0]
	for _, s := range m.Accepted {
		if s.Batch != nil && s.Batch.Digest() == s.Digest {
			valid = append(valid, s)
		}
	}
	m.Accepted = valid
	f.recordVC(from, m)

	if !f.inViewChange || m.NewView > f.targetView {
		ahead := 0
		for v, set := range f.vcs {
			if v > f.view {
				ahead += len(set)
			}
		}
		if ahead >= f.env.F()+1 {
			f.startViewChange(m.NewView)
		}
	}
	f.maybeNewView(m.NewView)
}

func (f *FaB) maybeNewView(v types.View) {
	if f.env.Config().LeaderOf(v) != f.env.ID() || f.sentNewView[v] {
		return
	}
	set := f.vcs[v]
	if len(set) < f.vcQuorum() {
		return
	}
	f.sentNewView[v] = true

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
			if committed[s.Seq] == nil {
				committed[s.Seq] = s
			}
		}
		for _, s := range vc.Accepted {
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
		pm.Sig = f.env.Signer().Sign(pm.SigDigest())
		nv.Proposals = append(nv.Proposals, pm)
	}
	nv.Sig = f.env.Signer().Sign(nv.SigDigest())
	f.env.Broadcast(nv)
	f.installNewView(nv)
}

func (f *FaB) onNewView(from types.NodeID, m *NewViewMsg) {
	if m.View < f.view || (m.View == f.view && !f.inViewChange) {
		return
	}
	if from != f.env.Config().LeaderOf(m.View) {
		return
	}
	if !f.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	if len(m.ViewChanges) < f.vcQuorum() {
		return
	}
	seen := make(map[types.NodeID]bool)
	for _, vc := range m.ViewChanges {
		if vc.NewView != m.View || seen[vc.Replica] {
			return
		}
		if !f.env.Verifier().VerifySig(vc.Replica, vc.SigDigest(), vc.Sig) {
			return
		}
		seen[vc.Replica] = true
	}
	f.installNewView(m)
}

func (f *FaB) installNewView(m *NewViewMsg) {
	f.view = m.View
	f.inViewChange = false
	f.pool.Release()
	f.slots = make(map[types.SeqNum]*slot)
	f.env.StopTimer(core.TimerID{Name: timerVCRetry, View: m.View})
	f.env.ViewChanged(m.View)

	if f.nextSeq < m.Base {
		f.nextSeq = m.Base
	}
	for i := range m.Committed {
		s := &m.Committed[i]
		if s.Seq > f.env.Ledger().LastExecuted() {
			proof := &types.CommitProof{View: s.View, Seq: s.Seq, Digest: s.Batch.Digest(),
				Voters: append([]types.NodeID(nil), s.Voters...)}
			f.env.Commit(s.View, s.Seq, s.Batch, proof)
		}
	}
	for _, pm := range m.Proposals {
		if pm.Seq > f.nextSeq {
			f.nextSeq = pm.Seq
		}
		if pm.Seq > f.env.Ledger().LastExecuted() {
			f.acceptPropose(pm)
		}
	}
	for v := range f.vcs {
		if v <= m.View {
			delete(f.vcs, v)
		}
	}
	if len(f.watch) > 0 {
		f.armProgress()
	}
	f.maybePropose()
}
