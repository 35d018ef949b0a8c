package main

import (
	"crypto/ed25519"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/crypto/vpool"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/types"
)

func tracedNode(t *testing.T) *nodeTrace {
	t.Helper()
	tr := newTracing(time.Now())
	tr.on.Store(true)
	auth := crypto.NewAuthority(1)
	return tr.addNode(0, auth, vpool.New(auth, vpool.Options{}))
}

type fakeHandler struct {
	from []types.NodeID
	msgs []types.Message
	// inside runs during Deliver, as nested seams would.
	inside func()
}

func (f *fakeHandler) Deliver(from types.NodeID, m types.Message) {
	f.from = append(f.from, from)
	f.msgs = append(f.msgs, m)
	if f.inside != nil {
		f.inside()
	}
}

func TestHandlerTapForwardsEveryDelivery(t *testing.T) {
	nt := tracedNode(t)
	inner := &fakeHandler{}
	h := &handlerTap{inner: inner, nt: nt}
	req := &core.RequestMsg{Req: &types.Request{Client: types.ClientIDBase, ClientSeq: 7}}
	pp := &pbft.PrepareMsg{View: 2, Seq: 9}
	h.Deliver(types.ClientIDBase, req)
	h.Deliver(3, pp)
	if !reflect.DeepEqual(inner.from, []types.NodeID{types.ClientIDBase, 3}) ||
		inner.msgs[0] != types.Message(req) || inner.msgs[1] != types.Message(pp) {
		t.Fatalf("inner saw %v %v, want the same senders and message pointers", inner.from, inner.msgs)
	}
	if len(nt.loop) != 2 || nt.loop[0].kind != "REQUEST" || nt.loop[1].kind != "PREPARE" {
		t.Fatalf("spans = %+v, want one delivery span per call", nt.loop)
	}
	if k := nt.loop[0].key; k.slot || k.a != uint64(types.ClientIDBase) || k.b != 7 {
		t.Errorf("request span key = %+v, want the request key", k)
	}
	if k := nt.loop[1].key; !k.slot || k.a != 2 || k.b != 9 {
		t.Errorf("prepare span key = %+v, want slot (2, 9)", k)
	}
}

type fakeDriver struct {
	now      time.Duration
	rng      *rand.Rand
	sends    [][3]any
	afterD   []time.Duration
	fns      []func()
	canceled int
}

func (f *fakeDriver) Now() time.Duration { return f.now }
func (f *fakeDriver) Rand() *rand.Rand   { return f.rng }
func (f *fakeDriver) Send(from, to types.NodeID, m types.Message) {
	f.sends = append(f.sends, [3]any{from, to, m})
}
func (f *fakeDriver) After(d time.Duration, fn func()) func() {
	f.afterD = append(f.afterD, d)
	f.fns = append(f.fns, fn)
	return func() { f.canceled++ }
}

func TestDriverTapForwardsEveryCall(t *testing.T) {
	nt := tracedNode(t)
	inner := &fakeDriver{now: 42 * time.Millisecond, rng: rand.New(rand.NewSource(1))}
	d := &driverTap{inner: inner, nt: nt}
	if d.Now() != inner.now || d.Rand() != inner.rng {
		t.Fatal("Now/Rand not forwarded")
	}
	m := &core.ReplyMsg{R: &types.Reply{}}
	d.Send(1, 2, m)
	if !reflect.DeepEqual(inner.sends, [][3]any{{types.NodeID(1), types.NodeID(2), types.Message(m)}}) {
		t.Fatalf("sends = %v", inner.sends)
	}
	fired := 0
	cancel := d.After(250*time.Millisecond, func() { fired++ })
	if len(inner.afterD) != 1 || inner.afterD[0] != 250*time.Millisecond {
		t.Fatalf("After durations = %v", inner.afterD)
	}
	inner.fns[0]()
	if fired != 1 {
		t.Errorf("timer callback ran %d times, want 1", fired)
	}
	cancel()
	if inner.canceled != 1 {
		t.Errorf("cancel forwarded %d times, want 1", inner.canceled)
	}
	if nt.sends.Load() != 1 || nt.timers.Load() != 1 {
		t.Errorf("counted %d sends, %d timers; want 1, 1", nt.sends.Load(), nt.timers.Load())
	}
}

type fakeEngine struct {
	args    []any
	verify  bool
	cached  bool
	stored  [][]types.NodeID
	digests []types.Digest
}

func (f *fakeEngine) VerifySig(pub ed25519.PublicKey, signer types.NodeID, d types.Digest, sig []byte) bool {
	f.args = []any{pub, signer, d, sig}
	return f.verify
}
func (f *fakeEngine) CertCached(d types.Digest, signers []types.NodeID) bool {
	f.digests = append(f.digests, d)
	return f.cached
}
func (f *fakeEngine) CertStore(d types.Digest, signers []types.NodeID) {
	f.digests = append(f.digests, d)
	f.stored = append(f.stored, signers)
}

func TestEngineTapForwardsEveryCall(t *testing.T) {
	nt := tracedNode(t)
	for _, want := range []bool{true, false} {
		inner := &fakeEngine{verify: want, cached: !want}
		e := &engineTap{inner: inner, nt: nt}
		pub, d, sig := ed25519.PublicKey{1, 2}, types.Digest{3}, []byte{4}
		if got := e.VerifySig(pub, 5, d, sig); got != want {
			t.Errorf("VerifySig = %v, want %v", got, want)
		}
		if !reflect.DeepEqual(inner.args, []any{pub, types.NodeID(5), d, sig}) {
			t.Errorf("VerifySig args = %v", inner.args)
		}
		signers := []types.NodeID{0, 1, 2}
		if got := e.CertCached(d, signers); got != !want {
			t.Errorf("CertCached = %v, want %v", got, !want)
		}
		e.CertStore(d, signers)
		if !reflect.DeepEqual(inner.stored, [][]types.NodeID{signers}) || len(inner.digests) != 2 || inner.digests[1] != d {
			t.Errorf("CertStore forwarded %v %v", inner.stored, inner.digests)
		}
	}
}

type fakeApp struct{ calls []any }

func (f *fakeApp) Apply(op []byte) []byte { f.calls = append(f.calls, "apply", op); return []byte("r") }
func (f *fakeApp) SpecApply(op []byte) ([]byte, int) {
	f.calls = append(f.calls, "spec", op)
	return []byte("s"), 3
}
func (f *fakeApp) Rollback(target int) { f.calls = append(f.calls, "rollback", target) }
func (f *fakeApp) Promote(oldest int)  { f.calls = append(f.calls, "promote", oldest) }
func (f *fakeApp) SpecDepth() int      { f.calls = append(f.calls, "depth"); return 4 }
func (f *fakeApp) Snapshot() []byte    { f.calls = append(f.calls, "snap"); return []byte("snap") }
func (f *fakeApp) Restore(b []byte) error {
	f.calls = append(f.calls, "restore", b)
	return errors.New("restore failed")
}
func (f *fakeApp) Hash() types.Digest { f.calls = append(f.calls, "hash"); return types.Digest{9} }

func TestAppTapForwardsEveryCall(t *testing.T) {
	nt := tracedNode(t)
	inner := &fakeApp{}
	a := &appTap{inner: inner, nt: nt}
	op := []byte("op")
	if r := a.Apply(op); string(r) != "r" {
		t.Errorf("Apply = %q", r)
	}
	if r, d := a.SpecApply(op); string(r) != "s" || d != 3 {
		t.Errorf("SpecApply = %q, %d", r, d)
	}
	a.Rollback(2)
	a.Promote(1)
	if a.SpecDepth() != 4 || string(a.Snapshot()) != "snap" || a.Hash() != (types.Digest{9}) {
		t.Error("SpecDepth/Snapshot/Hash results not forwarded")
	}
	if err := a.Restore([]byte("x")); err == nil || err.Error() != "restore failed" {
		t.Errorf("Restore = %v, want the inner error", err)
	}
	want := []any{"apply", op, "spec", op, "rollback", 2, "promote", 1, "depth", "snap", "hash", "restore", []byte("x")}
	if !reflect.DeepEqual(inner.calls, want) {
		t.Errorf("calls = %v\nwant    %v", inner.calls, want)
	}
}

func TestPrepareTapForwardsEveryCall(t *testing.T) {
	nt := tracedNode(t)
	var got [][2]any
	hook := prepareTap(func(from types.NodeID, m types.Message) { got = append(got, [2]any{from, m}) }, nt)
	m := &pbft.CommitMsg{View: 1, Seq: 2}
	hook(3, m)
	nt.tr.on.Store(false)
	hook(2, m)
	if !reflect.DeepEqual(got, [][2]any{{types.NodeID(3), types.Message(m)}, {types.NodeID(2), types.Message(m)}}) {
		t.Fatalf("hook saw %v", got)
	}
	if len(nt.lane) != 1 || nt.lane[0].op != opPrepare || nt.lane[0].kind != "COMMIT" {
		t.Errorf("lane spans = %+v, want one span while tracing was on", nt.lane)
	}
}

func TestNestedSpansGiveSelfTime(t *testing.T) {
	nt := tracedNode(t)
	eng := &engineTap{inner: &fakeEngine{verify: true}, nt: nt}
	app := &appTap{inner: &fakeApp{}, nt: nt}
	inner := &fakeHandler{inside: func() {
		eng.VerifySig(nil, 1, types.Digest{}, nil)
		time.Sleep(2 * time.Millisecond)
		app.Apply(nil)
	}}
	(&handlerTap{inner: inner, nt: nt}).Deliver(1, &pbft.CommitMsg{View: 0, Seq: 5})
	if len(nt.loop) != 3 || nt.loop[1].parent != 0 || nt.loop[2].parent != 0 || nt.cur != -1 {
		t.Fatalf("spans = %+v cur=%d, want verify and apply nested in the delivery", nt.loop, nt.cur)
	}
	if nt.loop[1].key != nt.loop[0].key {
		t.Errorf("child key %+v, want the parent's %+v", nt.loop[1].key, nt.loop[0].key)
	}
	st := nt.tr.totals()
	d := st.ops[opDeliver]
	children := st.ops[opVerify].dur + st.ops[opApply].dur
	if d.n != 1 || d.self != d.dur-children || d.self < float64(2*time.Millisecond) {
		t.Errorf("deliver total %v self %v children %v, want self = total - children >= 2ms", d.dur, d.self, children)
	}
	if st.deliver["COMMIT"] == nil || st.deliver["COMMIT"].n != 1 {
		t.Errorf("per-kind totals = %v", st.deliver)
	}
}

func TestSpansOffRecordNothing(t *testing.T) {
	nt := tracedNode(t)
	nt.tr.on.Store(false)
	h := &handlerTap{inner: &fakeHandler{}, nt: nt}
	h.Deliver(1, &pbft.CommitMsg{})
	(&driverTap{inner: &fakeDriver{}, nt: nt}).Send(1, 2, &pbft.CommitMsg{})
	if len(nt.loop) != 0 || nt.sends.Load() != 0 || nt.cur != -1 {
		t.Errorf("recorded %d spans, %d sends while off", len(nt.loop), nt.sends.Load())
	}
}

// TestTapsAreSafeAcrossLanesAndLoop drives the lane hook from several
// goroutines while the loop records deliveries, as the transport does.
func TestTapsAreSafeAcrossLanesAndLoop(t *testing.T) {
	nt := tracedNode(t)
	hook := prepareTap(func(types.NodeID, types.Message) {}, nt)
	h := &handlerTap{inner: &fakeHandler{}, nt: nt}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				hook(1, &pbft.PrepareMsg{Seq: types.SeqNum(i)})
			}
		}()
	}
	for i := 0; i < 200; i++ {
		h.Deliver(1, &pbft.CommitMsg{Seq: types.SeqNum(i)})
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	st := nt.tr.totals()
	if st.ops[opPrepare].n != 800 || st.ops[opDeliver].n != 200 {
		t.Errorf("recorded %d lane and %d loop spans, want 800 and 200", st.ops[opPrepare].n, st.ops[opDeliver].n)
	}
}
