package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted. When
// fewer than minBeyond samples would lie above it, it reports instead
// the highest percentile that leaves minBeyond above, and says which
// percentile it used. ok is false when no percentile qualifies.
func percentile(sorted []float64, p float64) (v, used float64, ok bool) {
	n := len(sorted)
	if n <= minBeyond {
		return 0, 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	used = p
	if rank > n-minBeyond {
		rank = n - minBeyond
		used = 100 * float64(rank) / float64(n)
	}
	return sorted[rank-1], used, true
}

// median of xs (not modified); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perReq normalises a window total by the requests completed in it.
func perReq(total float64, completed int) float64 {
	if completed == 0 {
		return math.NaN()
	}
	return total / float64(completed)
}

// outcome is one request's fate. A failed request (deadline missed or
// invalid result) has no latency: it counts as over every limit.
type outcome struct {
	submit, done time.Duration // since the run's epoch; done is the expiry instant for a failure
	failed       bool
}

func (o outcome) latencyMs() float64 {
	if o.failed {
		return math.Inf(1)
	}
	return float64(o.done-o.submit) / 1e6
}

// counters are the process-wide readings taken at each window edge.
type counters struct {
	at         time.Duration
	cpu        time.Duration // user+sys
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
	gcPause    float64 // seconds, from the pause histogram
	steal      float64 // seconds the hypervisor ran other guests on our vCPUs
}

var counterMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readCounters(epoch time.Time) counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(counterMetrics))
	for i, name := range counterMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return counters{
		at:         time.Since(epoch),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcPause:    histSum(s[3].Value.Float64Histogram()),
		steal:      stealSeconds(),
	}
}

// stealSeconds reads the machine's cumulative CPU steal time from
// /proc/stat; 0 where the kernel does not report it.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// histSum estimates a histogram's total from bucket midpoints.
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}

// windowStats is everything one measured window reports.
type windowStats struct {
	start, end         time.Duration
	secs               float64
	completed, failed  int
	samples            int
	p50, p99, p99Used  float64
	throughput         float64
	cpuUs, allocs, mem float64 // per completed request
	gcCycles           float64
	gcPauseUs          float64
	stealFrac          float64 // share of the machine's CPU time stolen
}

// grantedScale is the share of wall time the host actually ran this
// machine's vCPUs in the window. On a shared host the hypervisor's steal
// stretches every wall-clock reading of CPU-bound work by 1/scale, and it
// swings from a few percent to over half between runs; the reported
// wall-clock metrics divide it out (throughput / scale, latency * scale)
// so they describe the program, not the neighbours.
func grantedScale(stealFrac float64) float64 { return math.Max(1-stealFrac, 0.05) }

func (s windowStats) grantedScale() float64 { return grantedScale(s.stealFrac) }

func (s windowStats) attempted() int { return s.completed + s.failed }

// summarize reports the window [a.at, b.at): requests whose outcome fell
// in it, and the counter deltas across it.
func summarize(outs []outcome, a, b counters) windowStats {
	st := windowStats{start: a.at, end: b.at, secs: (b.at - a.at).Seconds()}
	var lat []float64
	for _, o := range outs {
		if o.done < a.at || o.done >= b.at {
			continue
		}
		if o.failed {
			st.failed++
		} else {
			st.completed++
		}
		lat = append(lat, o.latencyMs())
	}
	sort.Float64s(lat)
	st.samples = len(lat)
	var ok bool
	if st.p50, _, ok = percentile(lat, 50); !ok {
		st.p50 = math.NaN() // too few samples: the run reports it as not finite
	}
	if st.p99, st.p99Used, ok = percentile(lat, 99); !ok {
		st.p99 = math.NaN()
	}
	st.throughput = float64(st.completed) / st.secs
	st.cpuUs = perReq(float64(b.cpu-a.cpu)/1e3, st.completed)
	st.allocs = perReq(float64(b.allocs-a.allocs), st.completed)
	st.mem = perReq(float64(b.allocBytes-a.allocBytes), st.completed)
	st.gcCycles = float64(b.gcCycles - a.gcCycles)
	st.gcPauseUs = (b.gcPause - a.gcPause) * 1e6
	st.stealFrac = (b.steal - a.steal) / (st.secs * float64(runtime.NumCPU()))
	return st
}

// blockSize is the number of consecutive completions one latency block
// holds: exactly enough that p99 has minBeyond samples above it.
const blockSize = 100 * minBeyond

// blockLatencies splits the requests whose outcome fell in the windows
// into blocks of blockSize consecutive outcomes and returns each block's
// p50 and p99, every latency scaled to the CPU time the host granted in
// its window. Blocks of equal size keep p99 at p99 whatever the
// throughput, where a time window on a slow host would fall back to a
// lower percentile.
func blockLatencies(outs []outcome, per []windowStats) (p50s, p99s []float64) {
	if len(per) == 0 {
		return nil, nil
	}
	var in []outcome
	for _, o := range outs {
		if o.done >= per[0].start && o.done < per[len(per)-1].end {
			in = append(in, o)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].done < in[j].done })
	w := 0
	lat := make([]float64, 0, blockSize)
	for _, o := range in {
		for o.done >= per[w].end {
			w++
		}
		lat = append(lat, o.latencyMs()*per[w].grantedScale())
		if len(lat) == blockSize {
			sort.Float64s(lat)
			p50, _, _ := percentile(lat, 50)
			p99, _, _ := percentile(lat, 99)
			p50s, p99s = append(p50s, p50), append(p99s, p99)
			lat = lat[:0]
		}
	}
	return p50s, p99s
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
