package transport_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bftkit/internal/obsv"
	"bftkit/internal/transport"
	"bftkit/internal/types"
)

// TestSimultaneousDial starts two nodes that dial each other at the same
// instant: each sends n messages straight after Start, so both senders
// dial concurrently and the duplicate-connection tie-break retires one
// socket while the peer may already be writing to it. Every message must
// arrive, in send order, with no send drop — on the plain delivery path
// and with an async inbound-verify lane.
func TestSimultaneousDial(t *testing.T) {
	const n = 300
	for round := 0; round < 8; round++ {
		lanes := round%2 == 1
		t.Run(fmt.Sprintf("round=%d/lanes=%v", round, lanes), func(t *testing.T) {
			addrs := freePorts(t, 2)
			peers := map[types.NodeID]string{0: addrs[0], 1: addrs[1]}
			nodes := make([]*transport.Node, 2)
			handlers := make([]*orderedHandler, 2)
			tracers := make([]*obsv.Tracer, 2)
			for i := range nodes {
				nodes[i] = transport.NewNode(types.NodeID(i), peers, int64(round*2+i+1))
				handlers[i] = &orderedHandler{}
				tracers[i] = obsv.New(obsv.Options{})
				nodes[i].SetHandler(handlers[i])
				nodes[i].SetTracer(tracers[i])
				if lanes {
					nodes[i].SetInboundPrepare(func(types.NodeID, types.Message) {})
				}
				if err := nodes[i].Start(); err != nil {
					t.Fatal(err)
				}
				defer nodes[i].Stop()
			}
			var start, wg sync.WaitGroup
			start.Add(1)
			for i := range nodes {
				wg.Add(1)
				go func(from, to types.NodeID) {
					defer wg.Done()
					start.Wait()
					for seq := uint64(1); seq <= n; seq++ {
						nodes[from].Send(from, to, ping(seq))
					}
				}(types.NodeID(i), types.NodeID(1-i))
			}
			start.Done()
			wg.Wait()
			deadline := time.Now().Add(10 * time.Second)
			for (len(handlers[0].snapshot()) < n || len(handlers[1].snapshot()) < n) && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond) // let any duplicate surface
			for i, h := range handlers {
				got := h.snapshot()
				if len(got) != n {
					t.Fatalf("node %d received %d messages, want %d", i, len(got), n)
				}
				for k, seq := range got {
					if seq != uint64(k+1) {
						t.Fatalf("node %d: message %d has seq %d, want %d (out of order)", i, k, seq, k+1)
					}
				}
				if drops := tracers[i].TransportStats().SendDrops; drops != 0 {
					t.Fatalf("node %d dropped %d sends", i, drops)
				}
			}
		})
	}
}
