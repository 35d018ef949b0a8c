// Command realbench is bftkit's real-socket benchmark: it boots an n=4
// pbft cluster on loopback TCP inside one process, assembled from the
// same public constructors cmd/bftnode uses, drives it with closed-loop
// core.Client sessions, checks every result, and prints the end-to-end
// metrics (--trace 0) or the per-layer metrics from a run whose seams
// are wrapped (--trace 1). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash realbench/run.sh --workload sig-closed --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"bftkit/internal/protocols/pbft"
)

const (
	// setupRepeats: set-up is timed this many times per run and the
	// median reported; the last cluster built is the one measured.
	setupRepeats = 11
	// warmup runs the full load before any window opens, so connection
	// buffers, caches and the heap reach their steady size.
	warmup = 3 * time.Second
	// windows splits the measured interval; each end-to-end metric read
	// per window is reported as the median over windows, so one disturbed
	// window cannot move it.
	windows = 10
	// convergeTimeout bounds how long replicas may take to drain to the
	// same state after load stops.
	convergeTimeout = 10 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("realbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name from design.json")
	seed := fs.Int64("seed", 1, "workload seed: keys, op order and value bytes")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for the traced run's span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "realbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "realbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	secs := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = runTraced(stdout, w, *seed, secs, *out)
	} else {
		res, err = runPlain(stdout, w, *seed, secs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "realbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "realbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measured is one cluster's measured interval, after load has stopped
// and the outputs were checked.
type measured struct {
	per   []windowStats
	whole windowStats
	errs  []string
	rss   float64 // peak RSS (MB) once RSSAfter requests completed after warm-up; 0 if never
	views []uint64
	outs  []outcome
}

// measure runs warm-up and then the windows over secs on a started
// cluster, stops the load, and checks the outputs: every result (already
// checked by its session) and replica convergence. between, when set,
// runs at the opening and the closing of the measured interval.
func measure(c *cluster, epoch time.Time, secs time.Duration, between func(open bool)) measured {
	time.Sleep(warmup)
	if between != nil {
		between(true)
	}
	rssc := make(chan float64, 1)
	stopRSS := make(chan struct{})
	go func(base int64) {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for c.completed.Load()-base < c.w.RSSAfter {
			select {
			case <-stopRSS:
				rssc <- 0
				return
			case <-tick.C:
			}
		}
		v, err := rssPeakMB()
		if err != nil {
			fmt.Fprintln(os.Stderr, "realbench:", err)
		}
		rssc <- v
	}(c.completed.Load())
	edges := []counters{readCounters(epoch)}
	start := time.Now()
	for i := 1; i <= windows; i++ {
		time.Sleep(time.Until(start.Add(secs * time.Duration(i) / windows)))
		edges = append(edges, readCounters(epoch))
	}
	close(stopRSS)
	if between != nil {
		between(false)
	}
	c.stopLoad()
	var m measured
	m.rss = <-rssc
	m.errs = c.sessionErrors()
	if err := c.converged(convergeTimeout); err != nil {
		m.errs = append(m.errs, err.Error())
	}
	m.views = c.views()
	m.outs = c.outcomes()
	for i := 1; i < len(edges); i++ {
		m.per = append(m.per, summarize(m.outs, edges[i-1], edges[i]))
	}
	m.whole = summarize(m.outs, edges[0], edges[len(edges)-1])
	return m
}

// views reads each replica's pbft view on its event loop.
func (c *cluster) views() []uint64 {
	vs := make([]uint64, len(c.replicas))
	for i, r := range c.replicas {
		onLoop(r.node, func() {
			if p, ok := r.rep.Protocol().(*pbft.PBFT); ok {
				vs[i] = uint64(p.View())
			}
		})
	}
	return vs
}

func medianOf(ws []windowStats, f func(windowStats) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

// Wall-clock readings of a window, scaled to the CPU time the host
// granted (see grantedScale).
func grantedTput(s windowStats) float64 { return s.throughput / s.grantedScale() }
func grantedP50(s windowStats) float64  { return latencyMs(s.p50) * s.grantedScale() }
func grantedP99(s windowStats) float64  { return latencyMs(s.p99) * s.grantedScale() }

// latencyMs clamps a latency that landed on a failed request (+Inf) to
// the deadline, the least it can have been, so JSON can carry it.
func latencyMs(v float64) float64 {
	if math.IsInf(v, 1) {
		return float64(requestDeadline / time.Millisecond)
	}
	return v
}

func printWindows(w io.Writer, label string, ws []windowStats) {
	fmt.Fprintf(w, "%s\n  %-6s %6s %9s %8s %8s %9s %8s %8s %7s %8s %10s %10s %10s %7s\n", label,
		"window", "steal", "req/s", "p50_ms", "p99_ms", "req/s*", "p50_ms*", "p99_ms*", "p99_at", "samples",
		"cpu_us/req", "allocs/req", "B/req", "failed")
	for i, s := range ws {
		fmt.Fprintf(w, "  %-6d %5.1f%% %9.1f %8.3f %8.3f %9.1f %8.3f %8.3f %7.2f %8d %10.1f %10.1f %10.0f %7d\n", i+1,
			100*s.stealFrac, s.throughput, s.p50, latencyMs(s.p99), grantedTput(s), grantedP50(s), grantedP99(s),
			s.p99Used, s.samples, s.cpuUs, s.allocs, s.mem, s.failed)
	}
	fmt.Fprintln(w, "  * scaled to the CPU time the host granted: req/s / (1-steal), latency * (1-steal)")
}

func runPlain(stdout io.Writer, w workload, seed int64, secs time.Duration) (result, error) {
	epoch := time.Now()
	var setups []float64
	var errs []string
	var c *cluster
	steal0 := stealSeconds()
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		c, err = startCluster(w, seed, epoch, nil)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			c.stopLoad()
			errs = append(errs, c.sessionErrors()...)
			c.close()
		}
	}
	// One set-up is too short to read steal over (it counts in 10 ms
	// ticks); the set-up phase as a whole is scaled by its steal instead.
	setupScale := grantedScale((stealSeconds() - steal0) / (time.Since(epoch).Seconds() * float64(runtime.NumCPU())))
	m := measure(c, epoch, secs, nil)
	c.close()
	errs = append(errs, m.errs...)
	fmt.Fprintf(stdout, "realbench %s seed=%d: %s n=%d, %d session(s) x %d outstanding, %d B values, mix %s\n",
		w.Name, seed, w.Protocol, replicas, w.Sessions, w.Outstanding, w.ValueBytes, w.Mix)
	if m.rss == 0 {
		fmt.Fprintf(stdout, "note: fewer than %d requests completed in the measured window; rss_peak_mb is the peak at its end\n", w.RSSAfter)
		var err error
		if m.rss, err = rssPeakMB(); err != nil {
			return result{}, err
		}
	}
	fmt.Fprintf(stdout, "set-up (build, %d preload op(s) per session): %s s, median %.3f s, %.3f s scaled to granted CPU (x%.2f)\n",
		w.preloadOps(), fmtList(setups), median(setups), median(setups)*setupScale, setupScale)
	printWindows(stdout, fmt.Sprintf("%d windows of %v after %v warm-up (latency at nearest rank; p99_at is the percentile reported when fewer than %d samples lie above p99):",
		windows, secs/windows, warmup, minBeyond), m.per)
	p50s, p99s := blockLatencies(m.outs, m.per)
	fmt.Fprintf(stdout, "latency: median over %d blocks of %d consecutive requests, each latency scaled to granted CPU: p50 %s ms; p99 %s ms\n",
		len(p50s), blockSize, fmtList(p50s), fmtList(p99s))
	res := result{
		Attempted: m.whole.attempted(),
		Failed:    m.whole.failed,
		Metrics: map[string]metric{
			"throughput_rps":      {medianOf(m.per, grantedTput), "1/s"},
			"latency_p50_ms":      {latencyMs(median(p50s)), "ms"},
			"latency_p99_ms":      {latencyMs(median(p99s)), "ms"},
			"cpu_us_per_req":      {medianOf(m.per, func(s windowStats) float64 { return s.cpuUs }), "us"},
			"allocs_per_req":      {medianOf(m.per, func(s windowStats) float64 { return s.allocs }), "count"},
			"alloc_bytes_per_req": {medianOf(m.per, func(s windowStats) float64 { return s.mem }), "B"},
			"completed_frac":      {1 - ratio(int64(m.whole.failed), int64(m.whole.attempted())), "frac"},
			"setup_s":             {median(setups) * setupScale, "s"},
			"rss_peak_mb":         {m.rss, "MB"},
		},
	}
	fmt.Fprintf(stdout, "failure accounting: attempted %d, completed %d, failed %d (failed_frac %.4f); replica views at end %v (all 0: no view change)\n",
		res.Attempted, m.whole.completed, res.Failed, ratio(int64(res.Failed), int64(res.Attempted)), m.views)
	res.Correct = verdict(stdout, errs, res)
	if !res.Correct {
		res.Metrics = map[string]metric{}
	}
	return res, nil
}

func runTraced(stdout io.Writer, w workload, seed int64, secs time.Duration, outDir string) (result, error) {
	epoch := time.Now()
	half := secs / 2
	if half < time.Second {
		half = time.Second
	}
	// Untraced reference, built exactly as the end-to-end runs are.
	c, err := startCluster(w, seed, epoch, nil)
	if err != nil {
		return result{}, err
	}
	base := measure(c, epoch, half, nil)
	c.close()

	tr := newTracing(epoch)
	c, err = startCluster(w, seed, epoch, tr)
	if err != nil {
		return result{}, err
	}
	var tw tracedWindow
	stopProbes := make(chan struct{})
	var probes sync.WaitGroup
	traced := measure(c, epoch, half, func(open bool) {
		if open {
			for _, r := range c.replicas {
				probes.Add(1)
				go func() {
					defer probes.Done()
					r.nt.probe(r.node, stopProbes)
				}()
			}
			tw.before = tr.snap()
			tr.on.Store(true)
			return
		}
		tr.on.Store(false)
		close(stopProbes)
		probes.Wait()
		tw.after = tr.snap()
	})
	c.close()
	tw.viewChanges = tr.viewChanges.Load()
	tw.completed = traced.whole.completed
	tw.proc = traced.whole
	tw.spans = tr.totals()
	tw.slots, tw.reqs = tr.slotsCommitted.Load(), tr.reqsCommitted.Load()
	tw.tputUntraced = medianOf(base.per, grantedTput)
	tw.tputTraced = medianOf(traced.per, grantedTput)

	fmt.Fprintf(stdout, "realbench %s seed=%d traced: untraced reference then traced cluster, %v windows each\n", w.Name, seed, half)
	printWindows(stdout, "untraced reference:", base.per)
	printWindows(stdout, "traced:", traced.per)
	res := result{Attempted: traced.whole.attempted(), Failed: traced.whole.failed}
	if tw.completed == 0 {
		return result{}, fmt.Errorf("traced window completed no requests")
	}
	res.Metrics = layerMetrics(tw)
	writeTable(stdout, w.Name, tw, res.Metrics)
	fmt.Fprintf(stdout, "failure accounting: failed_frac %.4f, pbft.view_changes %v, client.sends_per_req %.3f, transport.send_drops %v\n",
		ratio(int64(res.Failed), int64(res.Attempted)), res.Metrics["pbft.view_changes"].Value,
		res.Metrics["client.sends_per_req"].Value, res.Metrics["transport.send_drops"].Value)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	// One file per workload, replaced by each traced run, so repeated runs
	// do not pile up span dumps.
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s.tsv.gz", w.Name))
	if err := tr.writeSpans(path, fmt.Sprintf("%s seed=%d", w.Name, seed)); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stdout, "spans written to %s\n", path)
	res.Correct = verdict(stdout, append(base.errs, traced.errs...), res)
	if !res.Correct {
		res.Metrics = map[string]metric{}
	}
	return res, nil
}

// verdict prints the output check and reports whether the run passed: no
// failed result check, replicas converged, and every metric finite.
func verdict(w io.Writer, errs []string, res result) bool {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", k, m.Value, m.Unit)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			errs = append(errs, fmt.Sprintf("metric %s is not finite", k))
		}
	}
	if res.Attempted == 0 {
		errs = append(errs, "no request was attempted in the measured window")
	}
	if len(errs) == 0 {
		fmt.Fprintf(w, "output check: passed (f+1 matching replies per completion, every result valid, replica stores equal)\n")
		return true
	}
	const show = 10
	for i, e := range errs {
		if i == show {
			fmt.Fprintf(w, "  ... and %d more\n", len(errs)-show)
			break
		}
		fmt.Fprintf(w, "  check failed: %s\n", e)
	}
	fmt.Fprintf(w, "output check: FAILED (%d problems); no metrics reported\n", len(errs))
	return false
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
