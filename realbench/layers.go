package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"bftkit/internal/crypto/vpool"
)

// layerSnap sums the per-node counters the traced run reads at the edges
// of its window.
type layerSnap struct {
	msgs, wireBytes              int64
	sign, verify, mac, macVerify int64
	vp                           vpool.Stats
	sendDrops, reconnects        int64
	// Seam counts, which only move while tracing is on: Driver.After calls
	// on every node, Driver.Send calls and replies delivered on clients.
	timers, clientSends, clientReplies int64
}

func (t *tracing) snap() layerSnap {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s layerSnap
	for _, nt := range t.nodes {
		tot := nt.obs.Totals()
		s.msgs += tot.MsgsSent
		s.wireBytes += tot.BytesSent
		ts := nt.obs.TransportStats()
		s.sendDrops += ts.SendDrops
		s.reconnects += ts.Reconnects
		sign, verify, mac, macVerify := nt.auth.Stats.Snapshot()
		s.sign += sign
		s.verify += verify
		s.mac += mac
		s.macVerify += macVerify
		s.timers += nt.timers.Load()
		if nt.id.IsClient() {
			s.clientSends += nt.sends.Load()
			s.clientReplies += nt.replies.Load()
		}
		if nt.engine != nil {
			v := nt.engine.Stats()
			s.vp.Performed += v.Performed
			s.vp.MemoHits += v.MemoHits
			s.vp.MemoMisses += v.MemoMisses
			s.vp.CertHits += v.CertHits
			s.vp.CertMisses += v.CertMisses
		}
	}
	return s
}

// opAgg totals the spans of one seam (ns).
type opAgg struct {
	n         int64
	dur, self float64
}

func (a *opAgg) add(dur, self int64) {
	a.n++
	a.dur += float64(dur)
	a.self += float64(self)
}

// spanTotals folds every finished span into per-seam totals, and
// deliveries also per message kind. Self time is a span's duration minus
// its children's durations.
type spanTotals struct {
	ops     [numOps]opAgg
	deliver map[string]*opAgg
	waits   []float64 // loop-wait probe samples, µs, sorted
}

func (t *tracing) totals() spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := spanTotals{deliver: make(map[string]*opAgg)}
	for _, nt := range t.nodes {
		nt.mu.Lock()
		child := make([]int64, len(nt.loop))
		for i := len(nt.loop) - 1; i >= 0; i-- {
			s := nt.loop[i]
			if s.end < 0 {
				continue
			}
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range nt.loop {
			if s.end < 0 {
				continue
			}
			dur := s.end - s.start
			st.ops[s.op].add(dur, dur-child[i])
			if s.op == opDeliver {
				a := st.deliver[s.kind]
				if a == nil {
					a = &opAgg{}
					st.deliver[s.kind] = a
				}
				a.add(dur, dur-child[i])
			}
		}
		for _, s := range nt.lane {
			st.ops[s.op].add(s.end-s.start, s.end-s.start)
		}
		st.waits = append(st.waits, nt.waits...)
		nt.mu.Unlock()
	}
	sort.Float64s(st.waits)
	return st
}

// deliverKinds maps the per-kind delivery metrics to message kinds.
var deliverKinds = []struct{ metric, kind string }{
	{"request", "REQUEST"},
	{"forward", "FORWARD"},
	{"preprepare", "PRE-PREPARE"},
	{"prepare", "PREPARE"},
	{"commit", "COMMIT"},
	{"checkpoint", "CHECKPOINT"},
	{"reply", "REPLY"},
}

// tracedWindow is what the per-layer metrics are computed from.
type tracedWindow struct {
	completed     int
	before, after layerSnap
	proc          windowStats // process counters over the traced window
	spans         spanTotals
	viewChanges   int64
	slots, reqs   int64
	tputTraced    float64
	tputUntraced  float64
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerMetrics computes every per-layer metric, by name with its unit.
func layerMetrics(tw tracedWindow) map[string]metric {
	n := tw.completed
	us := func(ns float64) float64 { return perReq(ns/1e3, n) }
	cnt := func(x int64) float64 { return perReq(float64(x), n) }
	d := func(f func(layerSnap) int64) int64 { return f(tw.after) - f(tw.before) }
	vpHits := d(func(s layerSnap) int64 { return s.vp.MemoHits })
	vpMiss := d(func(s layerSnap) int64 { return s.vp.MemoMisses })
	certHits := d(func(s layerSnap) int64 { return s.vp.CertHits })
	certMiss := d(func(s layerSnap) int64 { return s.vp.CertMisses })
	ops := tw.spans.ops
	w50, _, _ := percentile(tw.spans.waits, 50)
	w99, _, _ := percentile(tw.spans.waits, 99)

	m := map[string]metric{
		"crypto.verify_us_per_req":      {us(ops[opVerify].dur), "us"},
		"crypto.ed25519_verify_per_req": {cnt(d(func(s layerSnap) int64 { return s.vp.Performed })), "count"},
		"crypto.memo_hit_ratio":         {ratio(vpHits, vpHits+vpMiss), "frac"},
		"crypto.cert_hit_ratio":         {ratio(certHits, certHits+certMiss), "frac"},
		"crypto.sign_per_req":           {cnt(d(func(s layerSnap) int64 { return s.sign })), "count"},
		"crypto.verify_per_req":         {cnt(d(func(s layerSnap) int64 { return s.verify })), "count"},
		"crypto.mac_per_req":            {cnt(d(func(s layerSnap) int64 { return s.mac })), "count"},
		"crypto.mac_verify_per_req":     {cnt(d(func(s layerSnap) int64 { return s.macVerify })), "count"},
		"transport.prepare_us_per_req":  {us(ops[opPrepare].dur), "us"},
		"transport.msgs_per_req":        {cnt(d(func(s layerSnap) int64 { return s.msgs })), "count"},
		"transport.wire_bytes_per_req":  {cnt(d(func(s layerSnap) int64 { return s.wireBytes })), "B"},
		"transport.send_drops":          {float64(d(func(s layerSnap) int64 { return s.sendDrops })), "count"},
		"transport.reconnects":          {float64(d(func(s layerSnap) int64 { return s.reconnects })), "count"},
		"transport.loop_wait_us_p50":    {w50, "us"},
		"transport.loop_wait_us_p99":    {w99, "us"},
		"core.deliver_us_per_req":       {us(ops[opDeliver].dur), "us"},
		"core.deliver_self_us_per_req":  {us(ops[opDeliver].self), "us"},
		"core.deliver_calls_per_req":    {cnt(ops[opDeliver].n), "count"},
		"core.timers_per_req":           {cnt(d(func(s layerSnap) int64 { return s.timers })), "count"},
		"pbft.reqs_per_slot":            {ratio(tw.reqs, tw.slots), "count"},
		"pbft.view_changes":             {float64(tw.viewChanges), "count"},
		"kvstore.apply_us_per_req":      {us(ops[opApply].dur), "us"},
		"kvstore.applies_per_req":       {cnt(ops[opApply].n), "count"},
		"client.sends_per_req":          {cnt(d(func(s layerSnap) int64 { return s.clientSends })), "count"},
		"client.replies_per_req":        {cnt(d(func(s layerSnap) int64 { return s.clientReplies })), "count"},
		"go.gc_per_kreq":                {1000 * perReq(tw.proc.gcCycles, n), "count"},
		"go.gc_pause_us_per_req":        {perReq(tw.proc.gcPauseUs, n), "us"},
		"trace.overhead_frac":           {1 - tw.tputTraced/tw.tputUntraced, "frac"},
	}
	for _, k := range deliverKinds {
		var dur float64
		if a := tw.spans.deliver[k.kind]; a != nil {
			dur = a.dur
		}
		m["core.deliver_us_per_req."+k.metric] = metric{us(dur), "us"}
	}
	return m
}

// writeTable prints where a traced request's time goes: each seam's
// self time per completed request, summed over all nodes, against the
// traced window's process CPU per request. Event-loop spans are wall time
// on a loop goroutine, so they count toward the CPU column; the
// inbound-verify lanes wait on the vpool workers and overlap them, so
// they are shown beside the budget, not in it.
func writeTable(w io.Writer, name string, tw tracedWindow, m map[string]metric) {
	n := float64(tw.completed)
	ops := tw.spans.ops
	cpu := tw.proc.cpuUs
	fmt.Fprintf(w, "where a request's time goes: %s, traced, %d requests, per completed request summed over all nodes\n", name, tw.completed)
	fmt.Fprintf(w, "  %-24s %-36s %9s %10s %10s %7s\n", "layer", "seam", "spans/req", "total_us", "self_us", "of_cpu")
	row := func(layer, seam string, a opAgg) float64 {
		self := a.self / 1e3 / n
		fmt.Fprintf(w, "  %-24s %-36s %9.2f %10.1f %10.1f %6.1f%%\n", layer, seam, float64(a.n)/n, a.dur/1e3/n, self, 100*self/cpu)
		return self
	}
	onLoops := row("client", "client.Submit (signs the request)", ops[opSubmit]) +
		row("core (replicas, clients)", "transport.Handler.Deliver", ops[opDeliver]) +
		row("core timers", "core.Driver.After callback", ops[opTimer]) +
		row("crypto inline verify", "crypto.Engine.VerifySig", ops[opVerify]) +
		row("kvstore", "core.Application.Apply", ops[opApply])
	rest := cpu - onLoops
	fmt.Fprintf(w, "  %-24s %-36s %9s %10s %10.1f %6.1f%%\n", "off the event loops", "no seam: vpool workers, sockets, gob, GC", "", "", rest, 100*rest/cpu)
	fmt.Fprintf(w, "  %-24s %-36s %9s %10s %10.1f\n", "process cpu", "getrusage user+sys", "", "", cpu)
	a := ops[opPrepare]
	fmt.Fprintf(w, "  %-24s %-36s %9.2f %10.1f  (wall, off the loops, overlaps vpool workers)\n",
		"transport verify lanes", "Node.SetInboundPrepare hook", float64(a.n)/n, a.dur/1e3/n)
	for _, k := range deliverKinds {
		if a := tw.spans.deliver[k.kind]; a != nil {
			fmt.Fprintf(w, "    deliver %-18s %9.2f calls/req %10.1f us/req %10.1f self\n", k.kind, float64(a.n)/n, a.dur/1e3/n, a.self/1e3/n)
		}
	}
	fmt.Fprintf(w, "  event-loop queue wait (Node.Do probe): p50 %.1f us, p99 %.1f us over %d samples\n",
		m["transport.loop_wait_us_p50"].Value, m["transport.loop_wait_us_p99"].Value, len(tw.spans.waits))
	fmt.Fprintf(w, "  counts only, no timing seam: signing (crypto.Signer is a concrete type, so its time is in the self\n"+
		"  time of core and client) %.2f sign/req, %.2f mac/req; socket I/O, gob and the vpool workers have no\n"+
		"  public seam, so they fall in the off-the-loops row\n", m["crypto.sign_per_req"].Value, m["crypto.mac_per_req"].Value)
	fmt.Fprintf(w, "  trace overhead: %.0f req/s traced vs %.0f untraced (overhead_frac %.3f)\n",
		tw.tputTraced, tw.tputUntraced, m["trace.overhead_frac"].Value)
}

// writeSpans dumps every recorded span as gzipped TSV, then replica 0's
// slot-to-request map, so slot-keyed spans can be joined to requests.
func (t *tracing) writeSpans(path, run string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // level is valid
	bw := bufio.NewWriter(zw)
	fmt.Fprintf(bw, "# realbench spans: %s\n", run)
	fmt.Fprintln(bw, "# node\tbuffer\tindex\tparent\tname\tkind\tstart_ns\tend_ns\tkey")
	key := func(k spanKey) string {
		switch {
		case k.slot:
			return fmt.Sprintf("slot:%d/%d", k.a, k.b)
		case k == spanKey{}:
			return "-"
		}
		return fmt.Sprintf("req:%d/%d", k.a, k.b)
	}
	t.mu.Lock()
	for _, nt := range t.nodes {
		nt.mu.Lock()
		for _, b := range []struct {
			name  string
			spans []span
		}{{"loop", nt.loop}, {"lane", nt.lane}} {
			for i, s := range b.spans {
				fmt.Fprintf(bw, "%v\t%s\t%d\t%d\t%s\t%s\t%d\t%d\t%s\n", nt.id, b.name, i, s.parent, opNames[s.op], s.kind, s.start, s.end, key(s.key))
			}
		}
		nt.mu.Unlock()
	}
	fmt.Fprintln(bw, "# slot\tview\tseq\trequests")
	for _, r := range t.slots {
		keys := make([]string, len(r.keys))
		for i, k := range r.keys {
			keys[i] = fmt.Sprintf("%d/%d", k.Client, k.ClientSeq)
		}
		fmt.Fprintf(bw, "slot\t%d\t%d\t%s\n", r.view, r.seq, strings.Join(keys, ","))
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}
