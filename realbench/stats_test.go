package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileReportsHighestWithTenBeyond(t *testing.T) {
	cases := []struct {
		n        int
		p        float64
		wantV    float64
		wantUsed float64
		wantOK   bool
	}{
		{n: 1000, p: 99, wantV: 990, wantUsed: 99, wantOK: true},  // exactly 10 above
		{n: 2000, p: 99, wantV: 1980, wantUsed: 99, wantOK: true}, // 20 above
		{n: 500, p: 99, wantV: 490, wantUsed: 98, wantOK: true},   // falls back to p98
		{n: 21, p: 50, wantV: 11, wantUsed: 50, wantOK: true},     // 10 above the median
		{n: 11, p: 50, wantV: 1, wantUsed: 100.0 / 11, wantOK: true},
		{n: 10, p: 50, wantOK: false}, // no percentile leaves 10 above
	}
	for _, c := range cases {
		v, used, ok := percentile(seq(c.n), c.p)
		if ok != c.wantOK || (ok && (v != c.wantV || math.Abs(used-c.wantUsed) > 1e-9)) {
			t.Errorf("percentile(n=%d, p%v) = %v at p%v ok=%v, want %v at p%v ok=%v",
				c.n, c.p, v, used, ok, c.wantV, c.wantUsed, c.wantOK)
		}
		if ok && c.n-int(v) < minBeyond {
			t.Errorf("n=%d p%v: only %d samples above the reported value", c.n, c.p, c.n-int(v))
		}
	}
}

func TestPerReqNormalisesByCompletedRequests(t *testing.T) {
	if got := perReq(1000, 4); got != 250 {
		t.Errorf("perReq(1000, 4) = %v, want 250", got)
	}
	if got := perReq(1, 0); !math.IsNaN(got) {
		t.Errorf("perReq with no completions = %v, want NaN", got)
	}
	a := counters{at: 0, cpu: 0, allocs: 100, allocBytes: 1000}
	b := counters{at: 2 * time.Second, cpu: 40 * time.Millisecond, allocs: 500, allocBytes: 9000}
	outs := []outcome{
		{submit: 0, done: time.Second},
		{submit: 0, done: time.Second},
		{submit: 0, done: 1500 * time.Millisecond},
		{submit: 0, done: 1900 * time.Millisecond},
	}
	st := summarize(outs, a, b)
	if st.completed != 4 || st.cpuUs != 10000 || st.allocs != 100 || st.mem != 2000 || st.throughput != 2 {
		t.Errorf("summarize = %+v, want 4 completed, 10000 us/req, 100 allocs/req, 2000 B/req, 2 req/s", st)
	}
}

func TestFailedRequestsCountAgainstAttemptsAndEveryLimit(t *testing.T) {
	var outs []outcome
	for i := 0; i < 980; i++ {
		outs = append(outs, outcome{submit: time.Second, done: time.Second + time.Millisecond})
	}
	for i := 0; i < 20; i++ {
		outs = append(outs, outcome{submit: 0, done: 2 * time.Second, failed: true})
	}
	// Outside the window: ignored entirely.
	outs = append(outs, outcome{submit: 0, done: 10 * time.Second, failed: true})
	st := summarize(outs, counters{at: 0}, counters{at: 5 * time.Second})
	if st.attempted() != 1000 || st.failed != 20 || st.completed != 980 {
		t.Fatalf("attempted/failed/completed = %d/%d/%d, want 1000/20/980", st.attempted(), st.failed, st.completed)
	}
	if st.throughput != 980.0/5 {
		t.Errorf("throughput = %v, want only completions counted (196)", st.throughput)
	}
	if !math.IsInf(st.p99, 1) {
		t.Errorf("p99 = %v, want +Inf: 2%% of requests failed, and a failure is over every limit", st.p99)
	}
	if st.p50 != 1 {
		t.Errorf("p50 = %v ms, want 1", st.p50)
	}
	if got := latencyMs(st.p99); got != float64(requestDeadline/time.Millisecond) {
		t.Errorf("reported p99 = %v, want the deadline %v", got, requestDeadline)
	}
}

func TestGrantedScaleDividesOutSteal(t *testing.T) {
	st := windowStats{throughput: 300, p50: 4, p99: 10, stealFrac: 0.25}
	if grantedTput(st) != 400 || grantedP50(st) != 3 || grantedP99(st) != 7.5 {
		t.Errorf("granted = %v req/s, %v ms, %v ms; want 400, 3, 7.5", grantedTput(st), grantedP50(st), grantedP99(st))
	}
	if s := (windowStats{stealFrac: 1}).grantedScale(); s <= 0 {
		t.Errorf("grantedScale with all time stolen = %v, want a positive floor", s)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("median empty = %v", m)
	}
}

func TestBlockLatenciesKeepP99AtP99(t *testing.T) {
	per := []windowStats{
		{start: 0, end: time.Second, stealFrac: 0},
		{start: time.Second, end: 2 * time.Second, stealFrac: 0.5},
	}
	var outs []outcome
	// 1000 requests in the first window with latencies 1..1000 ms, then
	// 1500 in the second (the last 500 form no full block), and one
	// outside both windows.
	for i := 1; i <= 1000; i++ {
		done := time.Duration(i) * 900 * time.Microsecond
		outs = append(outs, outcome{submit: done - time.Duration(i)*time.Millisecond, done: done})
	}
	for i := 1; i <= 1500; i++ {
		done := time.Second + time.Duration(i)*600*time.Microsecond
		outs = append(outs, outcome{submit: done - 4*time.Millisecond, done: done})
	}
	outs = append(outs, outcome{submit: 0, done: 3 * time.Second})
	p50s, p99s := blockLatencies(outs, per)
	if len(p50s) != 2 || p50s[0] != 500 || p99s[0] != 990 {
		t.Fatalf("blocks p50 %v p99 %v, want two blocks, the first 500 and 990", p50s, p99s)
	}
	if p50s[1] != 2 || p99s[1] != 2 {
		t.Errorf("second block p50 %v p99 %v, want 4 ms scaled by half to 2", p50s[1], p99s[1])
	}
}
