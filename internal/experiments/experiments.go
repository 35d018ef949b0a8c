// Package experiments implements the benchmark harness of DESIGN.md: one
// experiment per quantitative claim the tutorial makes (X1–X14), each
// printing the table or series EXPERIMENTS.md records. All experiments
// run on the deterministic simulator, so a given seed reproduces the
// exact numbers.
//
// Importing this package registers every protocol implementation.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/forensics"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/obsv"
	"bftkit/internal/obsv/span"
	"bftkit/internal/sim"
	"bftkit/internal/types"

	// Register every protocol.
	_ "bftkit/internal/protocols/chainrepl"
	_ "bftkit/internal/protocols/cheapbft"
	_ "bftkit/internal/protocols/fab"
	_ "bftkit/internal/protocols/hotstuff"
	_ "bftkit/internal/protocols/kauri"
	_ "bftkit/internal/protocols/pbft"
	_ "bftkit/internal/protocols/poe"
	_ "bftkit/internal/protocols/prime"
	_ "bftkit/internal/protocols/qu"
	_ "bftkit/internal/protocols/raftlite"
	_ "bftkit/internal/protocols/sbft"
	_ "bftkit/internal/protocols/tendermint"
	_ "bftkit/internal/protocols/themis"
	_ "bftkit/internal/protocols/zyzzyva"
)

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer)
}

// All lists the experiments in DESIGN.md order.
var All = []Experiment{
	{"X1", "Design-space inventory (the tutorial's implicit Table 1)", X1DesignSpace},
	{"X2", "Good-case commit latency: phases × network delay (P2)", X2GoodCaseLatency},
	{"X3", "Message complexity vs n: clique, star, tree, chain (E2)", X3MessageComplexity},
	{"X4", "Throughput/latency trade-off: PBFT vs HotStuff, LAN vs WAN (§1)", X4ThroughputLatency},
	{"X5", "View change cost after a leader crash (P3)", X5ViewChange},
	{"X6", "Optimistic fast paths and their fallbacks (P1, DC5–DC8)", X6OptimisticFallback},
	{"X7", "Q/U under contention: conflict-rate sweep (DC9)", X7ConflictFree},
	{"X8", "Order-fairness under a front-running leader (Q1)", X8OrderFairness},
	{"X9", "Load balancing across topologies (Q2)", X9LoadBalancing},
	{"X10", "Authentication schemes: MACs vs signatures vs threshold (E3)", X10Authentication},
	{"X11", "Responsiveness: Tendermint's Δ wait vs HotStuff (E4)", X11Responsiveness},
	{"X12", "Phase reduction through redundancy: FaB vs PBFT (DC2)", X12PhaseVsReplicas},
	{"X13", "Checkpointing: garbage collection and in-dark recovery (P4/P5)", X13CheckpointRecovery},
	{"X14", "Robustness under a delay attack: Prime vs PBFT vs Raft (DC12)", X14RobustUnderAttack},
	{"X15", "Per-phase message/byte accounting via the obsv layer (E2, P2)", X15PhaseAccounting},
	{"X16", "Byzantine behaviors vs speculative fast paths (DC5–DC8, P6)", X16ByzantineFallback},
	{"X17", "Critical-path attribution from request-scoped span trees (P2)", X17CriticalPath},
	{"X18", "Who did it? Forensic attribution of Byzantine behaviors (P6)", X18WhoDidIt},
	{"X19", "Fault-detection latency through the monitoring plane (P3, P6)", X19FaultDetection},
}

// Observe routes per-run observability output from every cluster the
// experiments build. cmd/bftbench sets the writers from -stats, -trace,
// and -csv; all nil (the default) leaves tracing off and costs nothing.
var Observe struct {
	Stats     io.Writer // human per-phase summary after each run
	TraceJSON io.Writer // JSON-lines event dump (captures events — slower)
	CSV       io.Writer // per-node per-phase counter rows
	// Perfetto opens the Chrome/Perfetto trace_event sink for one
	// cluster run. Unlike the appendable writers above, a trace_event
	// document cannot be concatenated, so every run reopens (truncates)
	// the sink and the file ends up holding the last run's timeline.
	Perfetto func() (io.WriteCloser, error)
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func op(client, k int) []byte {
	return kvstore.Put(fmt.Sprintf("c%d-k%d", client, k), []byte(fmt.Sprintf("v%d", k)))
}

// result aggregates one run's metrics.
type result struct {
	Completed  int
	Elapsed    time.Duration
	Throughput float64 // req/s of virtual time
	Mean, P50  time.Duration
	P99        time.Duration
	Msgs       int64
	MsgsPerReq float64
	Bytes      int64
	ViewChgs   int
}

type runCfg struct {
	Proto       string
	N, F        int
	Clients     int
	PerClient   int
	Net         sim.NetConfig
	Seed        int64
	Tune        func(*core.Config)
	MakeReplica func(id types.NodeID, cfg core.Config) core.Protocol
	Byzantine   map[types.NodeID]byz.Behavior
	Forensics   *forensics.Options
	Prepare     func(c *harness.Cluster)
	// Window bounds the run when the protocol has perpetual timers
	// (raftlite heartbeats); zero drains to idle.
	Window time.Duration
	// Trace attaches a caller-owned tracer (X15 reads per-phase counters
	// from it after the run). When nil and Observe has writers, run()
	// creates one per cluster and flushes it to those writers.
	Trace *obsv.Tracer
}

func run(rc runCfg) (*harness.Cluster, result) {
	if rc.Clients == 0 {
		rc.Clients = 2
	}
	if rc.PerClient == 0 {
		rc.PerClient = 25
	}
	if rc.Seed == 0 {
		rc.Seed = 1
	}
	tr := rc.Trace
	flush := false
	if tr == nil && (Observe.Stats != nil || Observe.TraceJSON != nil || Observe.CSV != nil || Observe.Perfetto != nil) {
		tr = obsv.New(obsv.Options{Events: Observe.TraceJSON != nil || Observe.Perfetto != nil})
		flush = true
	}
	c := harness.NewCluster(harness.Options{
		Protocol: rc.Proto, N: rc.N, F: rc.F, Clients: rc.Clients,
		Net: rc.Net, Seed: rc.Seed, Tune: rc.Tune, MakeReplica: rc.MakeReplica,
		Byzantine: rc.Byzantine,
		Forensics: rc.Forensics,
		Trace:     tr,
	})
	tr.SetLabel(fmt.Sprintf("%s/n%d/seed%d", rc.Proto, c.Cfg.N, rc.Seed))
	c.Start()
	if rc.Prepare != nil {
		rc.Prepare(c)
	}
	start := c.Sched.Now()
	c.ClosedLoop(rc.PerClient, op)
	// Elapsed is measured to the LAST completion, not to queue drain: a
	// trailing pacemaker or heartbeat timer must not dilute throughput.
	lastDone := start
	c.AddDoneObserver(func(at time.Duration) {
		if at > lastDone {
			lastDone = at
		}
	})
	if rc.Window > 0 {
		c.Run(rc.Window)
	} else {
		c.RunUntilIdle(600 * time.Second)
	}
	elapsed := lastDone - start
	msgs, _ := c.Net.Totals()
	res := result{
		Completed: c.Metrics.Completed,
		Elapsed:   elapsed,
		Mean:      c.Metrics.MeanLatency(),
		P50:       c.Metrics.LatencyPercentile(50),
		P99:       c.Metrics.LatencyPercentile(99),
		Msgs:      msgs,
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Completed) / elapsed.Seconds()
	}
	if res.Completed > 0 {
		res.MsgsPerReq = float64(msgs) / float64(res.Completed)
	}
	for id := range c.Metrics.ViewChanges {
		res.ViewChgs += len(c.Metrics.ViewChanges[id])
	}
	var bytes int64
	for i := 0; i < c.Cfg.N; i++ {
		bytes += c.Net.Stats(types.NodeID(i)).BytesSent
	}
	res.Bytes = bytes
	if flush {
		if Observe.Stats != nil {
			tr.WriteSummary(Observe.Stats)
		}
		if Observe.TraceJSON != nil {
			tr.WriteTrace(Observe.TraceJSON)
		}
		if Observe.CSV != nil {
			tr.WriteCSV(Observe.CSV)
		}
		if Observe.Perfetto != nil {
			if pw, err := Observe.Perfetto(); err == nil {
				span.WritePerfetto(pw, tr)
				pw.Close()
			}
		}
	}
	return c, res
}

// X1DesignSpace renders the protocol × dimension inventory straight from
// the registered profiles — the executable version of the tutorial's
// design-space table.
func X1DesignSpace(w io.Writer) {
	fmt.Fprintln(w, "X1: design space — one row per registered protocol")
	fmt.Fprintf(w, "%-12s %-6s %-6s %-7s %-8s %-12s %-9s %-10s %-6s %-8s %s\n",
		"protocol", "n", "quorum", "phases", "topology", "strategy", "leader", "auth", "resp", "fairness", "timers")
	names := core.Names()
	sort.Strings(names)
	for _, name := range names {
		reg, _ := core.Lookup(name)
		p := reg.Profile
		strategy := p.Strategy.String()
		if p.Speculative {
			strategy += "/spec"
		}
		timers := ""
		for i, tm := range p.Timers {
			if i > 0 {
				timers += ","
			}
			timers += tm.String()
		}
		fmt.Fprintf(w, "%-12s %-6s %-6s %-7d %-8s %-12s %-9s %-10s %-6v %-8s %s\n",
			p.Name, p.Replicas, p.Quorum, p.Phases, p.Topology, strategy,
			p.Leader, p.AuthOrdering, p.Responsive, p.Fairness, timers)
	}
}

// X2GoodCaseLatency measures fault-free commit latency across protocols
// at two network delays and compares the measured ratio against the
// profile's phase count — the paper's good-case-latency dimension P2.
func X2GoodCaseLatency(w io.Writer) {
	fmt.Fprintln(w, "X2: good-case latency ≈ phases × δ (fault-free, batch=1, f=1)")
	fmt.Fprintf(w, "%-11s %-7s %-14s %-14s\n", "protocol", "phases", "mean@δ=1ms", "mean@δ=20ms")
	protos := []string{"zyzzyva", "fab", "pbft", "sbft", "poe", "tendermint", "hotstuff2", "hotstuff", "chain", "kauri"}
	for _, proto := range protos {
		reg, _ := core.Lookup(proto)
		lan := sim.NetConfig{Delay: time.Millisecond}
		wan := sim.NetConfig{Delay: 20 * time.Millisecond}
		tune := func(cfg *core.Config) {
			cfg.Delta = 40 * time.Millisecond
			cfg.ViewChangeTimeout = 2 * time.Second // keep timers out of the good case
			cfg.RequestTimeout = 4 * time.Second
			cfg.BatchTimeout = 200 * time.Microsecond
		}
		_, a := run(runCfg{Proto: proto, F: 1, Clients: 1, PerClient: 20, Net: lan, Tune: tune})
		_, b := run(runCfg{Proto: proto, F: 1, Clients: 1, PerClient: 20, Net: wan, Tune: tune})
		fmt.Fprintf(w, "%-11s %-7d %-14v %-14v\n", proto, reg.Profile.Phases, a.Mean.Round(10*time.Microsecond), b.Mean.Round(10*time.Microsecond))
	}
}

// X3MessageComplexity sweeps n and reports measured messages per request
// against the analytic per-slot model (E2's complexity classes).
func X3MessageComplexity(w io.Writer) {
	fmt.Fprintln(w, "X3: messages per committed request vs n (fault-free)")
	fmt.Fprintf(w, "%-10s %-6s %-12s %-10s\n", "protocol", "n", "measured/req", "model/slot")
	for _, proto := range []string{"pbft", "hotstuff", "sbft", "kauri", "chain"} {
		reg, _ := core.Lookup(proto)
		for _, n := range []int{4, 7, 16} {
			_, r := run(runCfg{Proto: proto, N: n, Clients: 1, PerClient: 20})
			fmt.Fprintf(w, "%-10s %-6d %-12.1f %-10d\n", proto, n, r.MsgsPerReq, reg.Profile.GoodCaseMessages(n))
		}
	}
}

// X4ThroughputLatency measures the paper's §1 claim: protocols that
// reduce message complexity by adding phases (HotStuff) win on throughput
// at scale but lose on latency, making them unattractive for
// geo-replication (WAN). Throughput also depends on how many requests
// each slot carries, so PBFT's backlog batching moves the throughput
// half (EXPERIMENTS.md, X4).
func X4ThroughputLatency(w io.Writer) {
	fmt.Fprintln(w, "X4: throughput/latency trade-off — PBFT (clique,3 phases) vs HotStuff (linear,7)")
	fmt.Fprintln(w, "    per-node egress cost 50µs/msg models finite bandwidth (the leader bottleneck)")
	fmt.Fprintf(w, "%-10s %-5s %-5s %-12s %-12s\n", "protocol", "n", "net", "tput(req/s)", "mean lat")
	tune := func(cfg *core.Config) {
		cfg.BatchSize = 16
		cfg.BatchTimeout = time.Millisecond
		cfg.ViewChangeTimeout = 3 * time.Second
		cfg.RequestTimeout = 6 * time.Second
	}
	for _, proto := range []string{"pbft", "hotstuff"} {
		for _, n := range []int{4, 16, 31} {
			for _, netName := range []string{"LAN", "WAN"} {
				net := sim.DefaultLAN()
				if netName == "WAN" {
					net = sim.DefaultWAN()
				}
				net.SendCostPerMsg = 50 * time.Microsecond
				_, r := run(runCfg{Proto: proto, N: n, Clients: 48, PerClient: 10, Net: net, Tune: tune})
				fmt.Fprintf(w, "%-10s %-5d %-5s %-12.0f %-12v\n",
					proto, n, netName, r.Throughput, r.Mean.Round(100*time.Microsecond))
			}
		}
	}
}

// X5ViewChange crashes the leader mid-run and measures the commit gap —
// the stable-leader view-change cost vs rotation-based recovery (P3).
func X5ViewChange(w io.Writer) {
	fmt.Fprintln(w, "X5: leader crash at t=20ms — completion and recovery gap (timeout 250ms)")
	fmt.Fprintf(w, "%-11s %-10s %-12s %-10s\n", "protocol", "completed", "commit gap", "viewchgs")
	for _, proto := range []string{"pbft", "sbft", "zyzzyva", "hotstuff", "tendermint"} {
		c := harness.NewCluster(harness.Options{Protocol: proto, F: 1, Clients: 2, Seed: 3,
			Tune: func(cfg *core.Config) { cfg.Delta = 30 * time.Millisecond }})
		c.Start()
		c.ClosedLoop(20, op)
		c.Run(20 * time.Millisecond)
		crashAt := c.Sched.Now()
		c.Crash(0)
		// Find the first completion after the crash.
		var firstAfter time.Duration
		c.AddDoneObserver(func(at time.Duration) {
			if firstAfter == 0 && at > crashAt {
				firstAfter = at
			}
		})
		c.RunUntilIdle(600 * time.Second)
		gap := time.Duration(0)
		if firstAfter > 0 {
			gap = firstAfter - crashAt
		}
		vcs := 0
		for id, vs := range c.Metrics.ViewChanges {
			if id != 0 {
				vcs += len(vs)
			}
		}
		fmt.Fprintf(w, "%-11s %-10d %-12v %-10d\n", proto, c.Metrics.Completed, gap.Round(time.Millisecond), vcs)
	}
}

// X6OptimisticFallback contrasts fault-free fast paths with their
// behavior under a single silent/corrupt backup (DC5–DC8).
func X6OptimisticFallback(w io.Writer) {
	fmt.Fprintln(w, "X6: optimistic protocols, fault-free vs one faulty backup")
	fmt.Fprintf(w, "%-10s %-16s %-16s %-8s\n", "protocol", "mean (no fault)", "mean (1 fault)", "ratio")
	for _, proto := range []string{"sbft", "zyzzyva", "poe", "cheapbft"} {
		tune := func(cfg *core.Config) {
			cfg.RequestTimeout = 40 * time.Millisecond
			cfg.CheckpointInterval = 16
		}
		_, clean := run(runCfg{Proto: proto, F: 1, Clients: 1, PerClient: 15, Tune: tune})
		_, faulty := run(runCfg{Proto: proto, F: 1, Clients: 1, PerClient: 15, Tune: tune,
			MakeReplica: faultyBackupFactory(proto)})
		ratio := 0.0
		if clean.Mean > 0 {
			ratio = float64(faulty.Mean) / float64(clean.Mean)
		}
		fmt.Fprintf(w, "%-10s %-16v %-16v %-8.1f\n", proto,
			clean.Mean.Round(10*time.Microsecond), faulty.Mean.Round(10*time.Microsecond), ratio)
	}
}

// X7ConflictFree sweeps the conflict rate for Q/U (DC9): zero ordering
// phases while disjoint, repair cycles once objects contend.
func X7ConflictFree(w io.Writer) {
	fmt.Fprintln(w, "X7: Q/U under contention (4 clients, f=1, n=6)")
	fmt.Fprintf(w, "%-14s %-12s %-12s %-12s\n", "conflict-rate", "tput(req/s)", "mean lat", "msgs/req")
	row := func(label string, nextOp func(client, k int) []byte) {
		c := harness.NewCluster(harness.Options{Protocol: "qu", F: 1, Clients: 4, Seed: 5})
		c.Start()
		c.ClosedLoop(15, nextOp)
		start := c.Sched.Now()
		c.RunUntilIdle(600 * time.Second)
		el := c.Sched.Now() - start
		msgs, _ := c.Net.Totals()
		fmt.Fprintf(w, "%-14s %-12.0f %-12v %-12.1f\n", label,
			float64(c.Metrics.Completed)/el.Seconds(),
			c.Metrics.MeanLatency().Round(10*time.Microsecond),
			float64(msgs)/float64(c.Metrics.Completed))
	}
	for _, pct := range []int{0, 10, 25, 50, 100} {
		pct := pct
		row(fmt.Sprintf("%d%%", pct), func(client, k int) []byte {
			if (client*31+k*17)%100 < pct {
				return kvstore.Add("hot", 1)
			}
			return op(client, k)
		})
	}
	// A Zipf-skewed write workload: the standard contended shape.
	row("zipf(s=1.1)", harness.ZipfOps(5, 32, []byte("v")))
}

// X8OrderFairness measures the fraction of order inversions produced by
// a front-running PBFT leader versus Prime's preordering and Themis's
// verifiable fair order (Q1, DC12, DC13).
func X8OrderFairness(w io.Writer) {
	fmt.Fprintln(w, "X8: order-fairness violations (open loop, 6 clients, front-running adversary on pbft)")
	fmt.Fprintf(w, "%-10s %-12s %-10s\n", "protocol", "violations", "rate")
	for _, proto := range []string{"pbft", "prime", "themis"} {
		c := harness.NewCluster(harness.Options{
			Protocol: proto, F: 1, Clients: 6, Seed: 11,
			Tune:        func(cfg *core.Config) { cfg.BatchSize = 1 },
			MakeReplica: frontRunFactory(proto),
		})
		c.Start()
		c.OpenLoop(10, 3*time.Millisecond, op)
		c.RunUntilIdle(600 * time.Second)
		v, pairs := c.Metrics.FairnessViolations(2 * time.Millisecond)
		rate := 0.0
		if pairs > 0 {
			rate = float64(v) / float64(pairs)
		}
		fmt.Fprintf(w, "%-10s %d/%-10d %-10.3f\n", proto, v, pairs, rate)
	}
}

// X9LoadBalancing reports the leader's share of sent messages and the
// max/mean per-replica load across topologies (Q2).
func X9LoadBalancing(w io.Writer) {
	fmt.Fprintln(w, "X9: per-replica load at n=15 (fault-free, 1 client)")
	fmt.Fprintf(w, "%-10s %-9s %-14s %-10s\n", "protocol", "topology", "leader share", "max/mean")
	for _, proto := range []string{"sbft", "pbft", "hotstuff", "kauri", "chain"} {
		reg, _ := core.Lookup(proto)
		c, _ := run(runCfg{Proto: proto, N: 15, Clients: 1, PerClient: 20})
		var total, max int64
		for i := 0; i < 15; i++ {
			s := c.Net.Stats(types.NodeID(i)).MsgsSent
			total += s
			if s > max {
				max = s
			}
		}
		leader := c.Net.Stats(0).MsgsSent
		mean := float64(total) / 15
		fmt.Fprintf(w, "%-10s %-9s %-14.2f %-10.1f\n", proto, reg.Profile.Topology,
			float64(leader)/float64(total), float64(max)/mean)
	}
}

// X10Authentication compares MAC-based and signature-based PBFT plus the
// threshold-certificate size model (E3, DC11).
func X10Authentication(w io.Writer) {
	fmt.Fprintln(w, "X10: authentication cost per committed request (n=4, 1 client)")
	fmt.Fprintf(w, "%-10s %-10s %-10s %-10s %-12s\n", "protocol", "sign/req", "verify/req", "mac/req", "bytes/req")
	for _, proto := range []string{"pbft", "pbft-mac", "hotstuff", "sbft"} {
		c, r := run(runCfg{Proto: proto, F: 1, Clients: 1, PerClient: 20})
		s, v, m, mv := c.Auth.Stats.Snapshot()
		den := float64(r.Completed)
		fmt.Fprintf(w, "%-10s %-10.1f %-10.1f %-10.1f %-12.0f\n", proto,
			float64(s)/den, float64(v)/den, float64(m+mv)/den, float64(r.Bytes)/den)
	}
}

// X11Responsiveness sweeps Δ under a fast actual network: Tendermint's
// per-height wait scales with Δ while HotStuff tracks the actual delay
// (E4, DC4).
func X11Responsiveness(w io.Writer) {
	fmt.Fprintln(w, "X11: commit latency with actual δ=2ms while Δ grows (1 client)")
	fmt.Fprintf(w, "%-12s %-10s %-12s\n", "protocol", "Δ", "mean lat")
	net := sim.NetConfig{Delay: 2 * time.Millisecond}
	for _, delta := range []time.Duration{20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond} {
		delta := delta
		_, r := run(runCfg{Proto: "tendermint", F: 1, Clients: 1, PerClient: 15, Net: net,
			Tune: func(cfg *core.Config) {
				cfg.Delta = delta
				cfg.ViewChangeTimeout = 20 * delta
			}})
		fmt.Fprintf(w, "%-12s %-10v %-12v\n", "tendermint", delta, r.Mean.Round(100*time.Microsecond))
	}
	_, r := run(runCfg{Proto: "hotstuff", F: 1, Clients: 1, PerClient: 15, Net: net})
	fmt.Fprintf(w, "%-12s %-10s %-12v  (responsive: independent of Δ)\n", "hotstuff", "n/a", r.Mean.Round(100*time.Microsecond))
}

// X12PhaseVsReplicas quantifies DC2: FaB's two phases against PBFT's
// three at the same f, on a 10ms network — latency bought with replicas.
func X12PhaseVsReplicas(w io.Writer) {
	fmt.Fprintln(w, "X12: FaB (5f+1, 2 phases) vs PBFT (3f+1, 3 phases), δ=10ms")
	fmt.Fprintf(w, "%-9s %-4s %-4s %-12s %-12s\n", "protocol", "f", "n", "mean lat", "msgs/req")
	net := sim.NetConfig{Delay: 10 * time.Millisecond}
	for _, f := range []int{1, 2} {
		for _, proto := range []string{"pbft", "fab"} {
			_, r := run(runCfg{Proto: proto, F: f, Clients: 1, PerClient: 15, Net: net})
			reg, _ := core.Lookup(proto)
			fmt.Fprintf(w, "%-9s %-4d %-4d %-12v %-12.1f\n", proto, f, reg.Profile.MinReplicas(f),
				r.Mean.Round(100*time.Microsecond), r.MsgsPerReq)
		}
	}
}

// X13CheckpointRecovery exercises P4/P5: log growth with and without
// checkpointing, and state-transfer catch-up for an in-dark replica.
func X13CheckpointRecovery(w io.Writer) {
	fmt.Fprintln(w, "X13: checkpointing (pbft, 1 client, 60 requests)")
	for _, interval := range []uint64{0, 10} {
		interval := interval
		c := harness.NewCluster(harness.Options{Protocol: "pbft", F: 1, Clients: 1,
			Tune: func(cfg *core.Config) { cfg.CheckpointInterval = interval }})
		c.Start()
		c.ClosedLoop(60, op)
		c.RunUntilIdle(600 * time.Second)
		fmt.Fprintf(w, "  interval=%-3d retained log entries at r0: %d (low water %d)\n",
			interval, c.Replicas[0].Ledger().Len(), c.Replicas[0].Ledger().LowWater())
	}
	// In-dark replica: partitioned away, then healed; checkpoint-based
	// state transfer must catch it up without replaying every slot.
	c := harness.NewCluster(harness.Options{Protocol: "pbft", F: 1, Clients: 1,
		Tune: func(cfg *core.Config) { cfg.CheckpointInterval = 10 }})
	c.Start()
	c.Net.Partition([]types.NodeID{0, 1, 2, types.ClientIDBase}, []types.NodeID{3})
	c.ClosedLoop(40, op)
	c.Run(5 * time.Second)
	c.Net.Heal()
	healAt := c.Sched.Now()
	c.DoneHook = nil
	c.ClosedLoop(10, func(cl, k int) []byte { return op(cl, 1000+k) })
	// Poll in small steps so the catch-up moment is measured, not the
	// drain of trailing client timers.
	caughtUp := time.Duration(0)
	for i := 0; i < 600; i++ {
		c.Run(50 * time.Millisecond)
		if c.Replicas[3].Ledger().LastExecuted() >= c.Replicas[0].Ledger().LastExecuted() &&
			c.Metrics.Completed >= 50 {
			caughtUp = c.Sched.Now() - healAt
			break
		}
	}
	fmt.Fprintf(w, "  in-dark replica healed at %v; caught up to seq %d within %v (state transfer)\n",
		healAt.Round(time.Millisecond), c.Replicas[3].Ledger().LastExecuted(), caughtUp.Round(time.Millisecond))
}

// X14RobustUnderAttack runs the delay attack of DC12: a Byzantine leader
// adds 150ms (inside PBFT's 250ms timeout) to every proposal. PBFT
// suffers it forever; Prime's monitor evicts the leader; RaftLite shows
// the CFT cost floor with no attack (it has no Byzantine story at all).
func X14RobustUnderAttack(w io.Writer) {
	fmt.Fprintln(w, "X14: leader delay attack (150ms, below PBFT's 250ms timeout)")
	fmt.Fprintf(w, "%-10s %-10s %-12s %-10s\n", "protocol", "attack", "p50 latency", "viewchgs")
	attack := 150 * time.Millisecond
	for _, proto := range []string{"pbft", "prime"} {
		// Bounded window: Prime's tight monitor keeps rotating views
		// after the workload drains, which would otherwise inflate the
		// view-change count without bound.
		_, r := run(runCfg{Proto: proto, F: 1, Clients: 2, PerClient: 15, Seed: 3,
			Window: 20 * time.Second, MakeReplica: delayAttackFactory(proto, attack)})
		fmt.Fprintf(w, "%-10s %-10s %-12v %-10d\n", proto, "150ms", r.P50.Round(time.Millisecond), r.ViewChgs)
	}
	_, r := run(runCfg{Proto: "raftlite", N: 3, F: 1, Clients: 2, PerClient: 15,
		Window: 15 * time.Second})
	fmt.Fprintf(w, "%-10s %-10s %-12v %-10d  (CFT floor, no Byzantine attack possible to express)\n",
		"raftlite", "none", r.P50.Round(time.Millisecond), r.ViewChgs)
}

// x15Row measures one protocol at one scale with a dedicated tracer and
// reduces the counters to per-slot ordering cost. Batch size 1 makes
// committed slots equal completed requests, so the denominator is exact;
// checkpointing is pushed out of the short run so only ordering-pipeline
// traffic lands in protocol phases.
func x15Row(proto string, n int) obsv.PerSlot {
	tr := obsv.New(obsv.Options{})
	_, r := run(runCfg{Proto: proto, N: n, Clients: 1, PerClient: 20, Trace: tr,
		Tune: func(cfg *core.Config) {
			cfg.BatchSize = 1
			cfg.CheckpointInterval = 1024
			cfg.ViewChangeTimeout = 2 * time.Second
			cfg.RequestTimeout = 4 * time.Second
		}})
	return tr.PerSlotRow(proto, n, r.Completed)
}

// X15PhaseAccounting prints per-slot ordering messages and wire bytes as
// measured by the obsv tracing layer, per protocol phase. The table is
// the measured form of the complexity claims X3 models analytically:
// PBFT's all-to-all phases grow quadratically with n, HotStuff's
// vote-collection grows linearly, and Zyzzyva's speculation needs a
// single ordering phase where PBFT needs three.
func X15PhaseAccounting(w io.Writer) {
	fmt.Fprintln(w, "X15: measured per-slot ordering cost (batch=1, 1 client, fault-free)")
	fmt.Fprintf(w, "%-10s %-4s %-6s %-10s %-11s %s\n",
		"protocol", "n", "slots", "msgs/slot", "bytes/slot", "ordering phases")
	for _, proto := range []string{"pbft", "hotstuff", "zyzzyva", "sbft"} {
		for _, n := range []int{4, 16} {
			row := x15Row(proto, n)
			phases := ""
			for i, p := range row.Phases {
				if i > 0 {
					phases += " "
				}
				phases += p
			}
			fmt.Fprintf(w, "%-10s %-4d %-6d %-10.1f %-11.0f %s\n",
				proto, n, row.Slots, row.Msgs, row.Bytes, phases)
		}
	}
	fmt.Fprintln(w, "  pbft scales O(n²) per slot, hotstuff O(n); zyzzyva orders in 1 phase to pbft's 3")
}
