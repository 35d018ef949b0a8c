package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/crypto/vpool"
	"bftkit/internal/kvstore"
	"bftkit/internal/transport"
	"bftkit/internal/types"

	_ "bftkit/internal/protocols/pbft" // registers pbft and pbft-mac
)

const (
	replicas = 4
	// deploySeed is the deployment key seed, bftnode's -seed default. The
	// workload seed drives inputs only; key material is fixed.
	deploySeed = 1
)

type replica struct {
	node   *transport.Node
	rep    *core.Replica
	store  *kvstore.Store
	auth   *crypto.Authority
	engine *vpool.Engine
	nt     *nodeTrace // traced build only
	up     bool       // event loop running
}

// cluster is an n=4 deployment in this process: every replica and every
// client session on its own 127.0.0.1 listener, talking real TCP.
type cluster struct {
	w        workload
	cfg      core.Config
	replicas []*replica
	sessions []*session
	tr       *tracing // nil for the untraced build
	// completed counts every session's valid completions.
	completed atomic.Int64
}

// config derives f and the auth scheme exactly as cmd/bftnode does.
func config(reg core.Registration, n int) (core.Config, error) {
	cfg := core.DefaultConfig(n)
	cfg.F = 0
	for ff := 1; reg.Profile.MinReplicas(ff) <= n; ff++ {
		cfg.F = ff
	}
	if cfg.F == 0 {
		return cfg, fmt.Errorf("%d replicas cannot tolerate any fault under %s", n, reg.Profile.Replicas)
	}
	cfg.Scheme = reg.Profile.AuthOrdering
	return cfg, nil
}

// reserveAddrs picks k free loopback ports by listening and closing; the
// transport nodes bind them again right away.
func reserveAddrs(k int) ([]string, error) {
	addrs := make([]string, k)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// startCluster builds the deployment, starts every session's closed loop
// and returns once each session has completed its preload ops. With tr
// nil the replicas are built exactly as cmd/bftnode builds them (minus
// its per-commit log line) and the sessions as cmd/bftclient builds its
// client; with tr set, every seam is wrapped.
func startCluster(w workload, seed int64, epoch time.Time, tr *tracing) (*cluster, error) {
	var c *cluster
	var err error
	// A reserved port can be taken by another process before the node
	// binds it; build again on fresh ports.
	for attempt := 0; attempt < 3; attempt++ {
		if c, err = buildCluster(w, seed, epoch, tr); !errors.Is(err, syscall.EADDRINUSE) {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	for _, s := range c.sessions {
		go s.run()
	}
	timeout := time.After(30 * time.Second)
	for _, s := range c.sessions {
		select {
		case <-s.loaded:
		case <-timeout:
			c.stopLoad()
			c.close()
			return nil, fmt.Errorf("set-up: session %d did not finish its %d preload ops in 30s", s.idx, w.preloadOps())
		}
	}
	return c, nil
}

// buildCluster starts every node, listening but idle: no node dials
// before the sessions run, so no outgoing connection's ephemeral port can
// take an address reserved for a later node.
func buildCluster(w workload, seed int64, epoch time.Time, tr *tracing) (*cluster, error) {
	reg, ok := core.Lookup(w.Protocol)
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q", w.Protocol)
	}
	cfg, err := config(reg, replicas)
	if err != nil {
		return nil, err
	}
	addrs, err := reserveAddrs(replicas + w.Sessions)
	if err != nil {
		return nil, err
	}
	// Replicas list every client, so each replica can reply to a client
	// it has not heard from directly. With bftnode's replica-only table a
	// backup learns a client's return path only from a retransmission,
	// and its at-most-once cache keeps just the last reply per client: a
	// client with several requests outstanding would lose all but one of
	// its first replies for good.
	peers := make(map[types.NodeID]string, replicas+w.Sessions)
	for i := 0; i < replicas; i++ {
		peers[types.NodeID(i)] = addrs[i]
	}
	for i := 0; i < w.Sessions; i++ {
		peers[types.ClientIDBase+types.NodeID(i)] = addrs[replicas+i]
	}
	c := &cluster{w: w, cfg: cfg, tr: tr}
	for i := 0; i < replicas; i++ {
		if err := c.startReplica(reg, types.NodeID(i), peers); err != nil {
			c.close()
			return nil, err
		}
	}
	for i := 0; i < w.Sessions; i++ {
		id := types.ClientIDBase + types.NodeID(i)
		cpeers := map[types.NodeID]string{id: peers[id]}
		for r := 0; r < replicas; r++ {
			cpeers[types.NodeID(r)] = peers[types.NodeID(r)]
		}
		s, err := c.startSession(reg, i, id, cpeers, seed, epoch)
		if err != nil {
			c.close()
			return nil, err
		}
		c.sessions = append(c.sessions, s)
	}
	return c, nil
}

func (c *cluster) startReplica(reg core.Registration, id types.NodeID, peers map[types.NodeID]string) error {
	node := transport.NewNode(id, peers, deploySeed)
	auth := crypto.NewAuthority(deploySeed)
	engine := vpool.New(auth, vpool.Options{Workers: runtime.NumCPU(), Cache: vpool.DefaultCache})
	store := kvstore.New()
	r := &replica{node: node, store: store, auth: auth, engine: engine}
	c.replicas = append(c.replicas, r)

	var (
		eng     crypto.Engine                            = engine
		prepare func(from types.NodeID, m types.Message) = engine.Prepare()
		driver  core.Driver                              = node
		app     core.Application                         = store
		hooks   core.Hooks
	)
	var nt *nodeTrace
	if c.tr != nil {
		nt = c.tr.addNode(id, auth, engine)
		r.nt = nt
		node.SetTracer(nt.obs)
		eng = &engineTap{inner: engine, nt: nt}
		prepare = prepareTap(prepare, nt)
		driver = &driverTap{inner: node, nt: nt}
		app = &appTap{inner: store, nt: nt}
		hooks.OnCommit = c.tr.onCommit
		hooks.OnViewChange = c.tr.onViewChange
	}
	auth.SetEngine(eng)
	node.SetInboundPrepare(prepare)
	r.rep = core.NewReplica(id, c.cfg, driver, reg.NewReplica(c.cfg), app, auth, hooks)
	if nt != nil {
		node.SetHandler(&handlerTap{inner: r.rep, nt: nt})
	} else {
		node.SetHandler(r.rep)
	}
	if err := node.Start(); err != nil {
		return fmt.Errorf("replica %v: %w", id, err)
	}
	r.up = true
	node.Do(r.rep.Start)
	return nil
}

func (c *cluster) startSession(reg core.Registration, idx int, id types.NodeID, peers map[types.NodeID]string, seed int64, epoch time.Time) (*session, error) {
	s := newSession(idx, c.w, seed, epoch)
	s.completed = &c.completed
	node := transport.NewNode(id, peers, deploySeed)
	auth := crypto.NewAuthority(deploySeed)
	hooks := core.ClientHooks{OnDone: s.onDone}
	var driver core.Driver = node
	var nt *nodeTrace
	if c.tr != nil {
		nt = c.tr.addNode(id, auth, nil)
		node.SetTracer(nt.obs)
		driver = &driverTap{inner: node, nt: nt}
	}
	client := core.NewClient(id, c.cfg, driver, reg.ClientFor(c.cfg), auth, hooks)
	s.node, s.client = node, client
	s.submit = func(req *types.Request) { node.Do(func() { client.Submit(req) }) }
	if nt != nil {
		node.SetHandler(&handlerTap{inner: client, nt: nt})
		s.submit = func(req *types.Request) {
			node.Do(func() {
				i := nt.begin(opSubmit, "submit", requestKey(req.Key()))
				client.Submit(req)
				nt.end(i)
			})
		}
	} else {
		node.SetHandler(client)
	}
	if err := node.Start(); err != nil {
		return nil, fmt.Errorf("session %d: %w", idx, err)
	}
	node.Do(client.Start)
	return s, nil
}

// stopLoad stops every session's closed loop and waits until each has
// drained: every outstanding request completed or failed.
func (c *cluster) stopLoad() {
	for _, s := range c.sessions {
		close(s.stop)
	}
	for _, s := range c.sessions {
		<-s.exited
	}
}

// onLoop runs fn on node's event loop and waits for it. The node must be
// running.
func onLoop(n *transport.Node, fn func()) {
	done := make(chan struct{})
	n.Do(func() { fn(); close(done) })
	<-done
}

// converged waits until all replicas report the same store hash, read on
// each replica's own event loop. Applied-op counts may differ: a replica
// that fell behind catches up by checkpoint state transfer.
func (c *cluster) converged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		hashes := make([]types.Digest, len(c.replicas))
		for i, r := range c.replicas {
			onLoop(r.node, func() { hashes[i] = r.store.Hash() })
		}
		same := true
		for i := range hashes {
			same = same && hashes[i] == hashes[0]
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			var b strings.Builder
			for i := range hashes {
				fmt.Fprintf(&b, " r%d=%x", i, hashes[i][:6])
			}
			return fmt.Errorf("replica stores differ after %v:%s", timeout, b.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// sessionErrors gathers every failed result check.
func (c *cluster) sessionErrors() []string {
	var errs []string
	for _, s := range c.sessions {
		errs = append(errs, s.errs...)
	}
	return errs
}

// outcomes gathers every session's request outcomes; call after stopLoad.
func (c *cluster) outcomes() []outcome {
	var outs []outcome
	for _, s := range c.sessions {
		outs = append(outs, s.outs...)
	}
	return outs
}

// close stops every node, client first, then replicas and their engines.
// No session may still be running: call stopLoad first.
func (c *cluster) close() {
	for _, s := range c.sessions {
		onLoop(s.node, s.client.Stop)
		s.node.Stop()
	}
	for _, r := range c.replicas {
		if r.up {
			onLoop(r.node, r.rep.Stop)
		}
		r.node.Stop()
		r.engine.Stop()
	}
}
