package chaos

// Real-network chaos: the invariant oracle audits a pbft cluster
// running over internal/transport's actual TCP stack, with every
// inter-replica link interposed by a NetemLink, one replica killed and
// restarted with amnesia mid-workload, and stream corruption injected
// into a live connection. The simulator's chaos suite explores
// schedules; this test checks that nothing about the real stack —
// kernel buffering, dial latency, goroutine interleavings, partial
// writes — breaks the same invariants.

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/obsv"
	"bftkit/internal/types"

	_ "bftkit/internal/protocols/pbft"
)

// TestNetemLinkFaults pins the proxy itself: bytes flow through, Sever
// cuts live connections and refuses new ones, Heal restores service,
// and injected garbage precedes the next real chunk.
func TestNetemLinkFaults(t *testing.T) {
	// Echo server as the forward target.
	srv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		for {
			c, err := srv.Accept()
			if err != nil {
				return
			}
			go io.Copy(c, c)
		}
	}()

	link, err := NewNetemLink(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	dial := func() net.Conn {
		t.Helper()
		c, err := net.DialTimeout("tcp", link.Addr(), 2*time.Second)
		if err != nil {
			t.Fatalf("dial through link: %v", err)
		}
		return c
	}
	roundTrip := func(c net.Conn, payload string) (string, error) {
		if _, err := c.Write([]byte(payload)); err != nil {
			return "", err
		}
		buf := make([]byte, len(payload))
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.ReadFull(c, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	c1 := dial()
	defer c1.Close()
	if got, err := roundTrip(c1, "hello"); err != nil || got != "hello" {
		t.Fatalf("passthrough: got %q, %v", got, err)
	}

	// Garbage precedes the next chunk: write 5 bytes, read 3+5 back.
	link.InjectGarbage(3)
	if _, err := c1.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	c1.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c1, buf); err != nil {
		t.Fatalf("reading garbage+payload echo: %v", err)
	}
	if string(buf[3:]) != "world" {
		t.Fatalf("expected payload after 3 garbage bytes, got %q", buf)
	}

	// Sever kills the live connection and refuses replacements.
	link.Sever()
	if _, err := roundTrip(c1, "dead"); err == nil {
		t.Fatal("round trip succeeded over a severed link")
	}
	c2, err := net.DialTimeout("tcp", link.Addr(), 2*time.Second)
	if err == nil {
		// The TCP handshake may complete before the proxy closes it; any
		// traffic must fail.
		if _, rerr := roundTrip(c2, "refused"); rerr == nil {
			t.Fatal("severed link carried traffic for a new connection")
		}
		c2.Close()
	}

	link.Heal()
	c3 := dial()
	defer c3.Close()
	if got, err := roundTrip(c3, "back"); err != nil || got != "back" {
		t.Fatalf("after heal: got %q, %v", got, err)
	}
}

// TestTCPClusterKillRestartUnderChaos is the tentpole acceptance run: a
// real-TCP pbft cluster (n=4, f=1) serves a closed-loop workload while
// one backup replica is killed and later restarted with empty state,
// one link runs with added latency, another link is severed and healed,
// and garbage is injected into a live leader connection. The chaos
// oracle's prefix-agreement and acked-durability invariants must hold
// throughout, and the injected stream corruption must surface as frame
// rejections — not node deaths.
func TestTCPClusterKillRestartUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network run with kill/restart and wall-clock backoff")
	}

	nn := NewNetemNet(42)
	defer nn.Close()
	tracer := obsv.New(obsv.Options{Label: "tcp-chaos"})

	var clu *harness.TCPCluster
	now := func() time.Duration {
		if clu == nil {
			return 0
		}
		return clu.Now()
	}
	oracle := NewOracle(Config{Protocol: "pbft", N: 4, F: 1}, now)

	clu, err := harness.NewTCPCluster(harness.TCPOptions{
		Protocol: "pbft",
		N:        4,
		F:        1,
		Seed:     7,
		// Short checkpoint window so the restarted replica's state
		// transfer actually runs inside this small workload.
		Tune:      func(cfg *core.Config) { cfg.CheckpointInterval = 8 },
		Observers: []harness.Observer{oracle},
		PeerView:  nn.View,
		Trace:     tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Stop()

	const requests = 30
	completed := 0
	submit := func(i int) {
		clu.Submit(kvstore.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("value-%d", i))))
		if _, err := clu.AwaitDone(30 * time.Second); err != nil {
			t.Fatalf("request %d: %v (violations so far: %v)", i, err, oracle.Violations())
		}
		completed++
	}

	// Phase 1: healthy cluster, with one slow link from the start.
	if l := nn.Link(1, 2); l != nil {
		l.SetDelay(2 * time.Millisecond)
	}
	for i := 1; i <= 10; i++ {
		submit(i)
	}

	// Phase 2: kill backup replica 3 (leader of view 0 is replica 0);
	// the cluster must keep committing on the remaining quorum while
	// every peer's dials to 3 fail and back off.
	clu.KillReplica(3)
	for i := 11; i <= 18; i++ {
		submit(i)
	}

	// Phase 3: restart replica 3 from empty state; it rejoins via
	// checkpoint state transfer while the workload continues. Briefly
	// sever the leader→backup-1 link mid-recovery, then heal it.
	if err := clu.RestartReplica(3); err != nil {
		t.Fatal(err)
	}
	sev := nn.Link(0, 1)
	if sev != nil {
		sev.Sever()
	}
	for i := 19; i <= 24; i++ {
		submit(i)
	}
	if sev != nil {
		sev.Heal()
	}
	for i := 25; i <= requests; i++ {
		submit(i)
	}

	// Phase 4: corrupt a live stream between the leader and backup 1.
	// After the sever/heal the pair may have converged on either side's
	// dial, so poison both directed links — whichever carries the live
	// socket corrupts it. The garbage must cost exactly a connection
	// (frame reject + reconnect), nothing more. Keep the workload
	// running until the rejection is observed.
	if l01, l10 := nn.Link(0, 1), nn.Link(1, 0); l01 != nil || l10 != nil {
		if l01 != nil {
			l01.InjectGarbage(64)
		}
		if l10 != nil {
			l10.InjectGarbage(64)
		}
		extra := 0
		for tracer.TransportStats().FrameRejects == 0 && extra < 20 {
			extra++
			submit(requests + extra)
		}
		if tracer.TransportStats().FrameRejects == 0 {
			t.Fatalf("injected garbage between replicas 0 and 1 never produced a frame rejection (stats %+v)", tracer.TransportStats())
		}
	}

	// Stop the replicas first: their event loops feed the oracle, which
	// is not safe for concurrent use with Finalize.
	clu.Stop()
	oracle.Finalize(completed, completed, true, clu.Now())
	if v := oracle.Violations(); len(v) != 0 {
		t.Fatalf("invariant violations on real TCP:\n%v", v)
	}

	// The run must have exercised the reconnect path, not just survived.
	ts := tracer.TransportStats()
	if ts.Reconnects == 0 && ts.DialFails == 0 {
		t.Fatalf("kill/restart produced no reconnect activity (stats %+v)", ts)
	}
}

var _ harness.Observer = (*Oracle)(nil)

var _ = types.NodeID(0)
