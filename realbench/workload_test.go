package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"bftkit/internal/kvstore"
)

func TestValueRoundTripsAndRejectsTampering(t *testing.T) {
	for _, size := range []int{64, 1024} {
		v := value(7, "s0/k001", 12, size)
		if len(v) != size {
			t.Fatalf("len = %d, want %d", len(v), size)
		}
		if ver, err := parseValue(7, "s0/k001", size, v); err != nil || ver != 12 {
			t.Fatalf("parseValue = %d, %v; want 12", ver, err)
		}
		bad := map[string][]byte{
			"flipped filler":   append(append([]byte(nil), v[:20]...), append([]byte{v[20] ^ 1}, v[21:]...)...),
			"truncated":        v[:size-1],
			"other key":        value(7, "s0/k002", 12, size),
			"other seed":       value(8, "s0/k001", 12, size),
			"empty (NotFound)": kvstore.ResultNotFound,
		}
		for name, b := range bad {
			if _, err := parseValue(7, "s0/k001", size, b); err == nil {
				t.Errorf("size %d, %s: accepted", size, name)
			}
		}
	}
}

func TestOpsAreAFunctionOfTheSeed(t *testing.T) {
	w, err := findWorkload("mac-1k-mixed")
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed int64) [][]byte {
		g := newOpGen(w, seed, 1)
		var ops [][]byte
		for i := 0; i < w.Keys+50; i++ {
			ops = append(ops, g.next().raw)
		}
		return ops
	}
	a, b, c := gen(3), gen(3), gen(4)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different ops")
	}
	if reflect.DeepEqual(a[w.Keys:], c[w.Keys:]) {
		t.Error("different seeds gave the same ops")
	}
	// The preload writes every key once, then Puts and Gets alternate.
	for i, raw := range a {
		o, err := kvstore.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		wantGet := i >= w.Keys && (i-w.Keys)%2 == 1
		if (o.Code == kvstore.OpGet) != wantGet {
			t.Fatalf("op %d is %v, want get=%v", i, o.Code, wantGet)
		}
		if i < w.Keys && o.Key != keyName(1, i) {
			t.Fatalf("preload op %d writes %s", i, o.Key)
		}
	}
}

func TestSessionCheckRejectsInvalidResults(t *testing.T) {
	w, err := findWorkload("mac-1k-mixed")
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(0, w, 5, time.Now())
	s.gen.issued[3] = 4
	s.acked[3] = 2
	key := keyName(0, 3)
	get := &pending{op: op{get: true, key: 3}, minVer: 2}
	if err := s.check(get, value(5, key, 3, w.ValueBytes)); err != nil {
		t.Errorf("valid get rejected: %v", err)
	}
	if err := s.check(get, value(5, key, 1, w.ValueBytes)); err == nil {
		t.Error("get older than an acknowledged put accepted")
	}
	if err := s.check(get, value(5, key, 5, w.ValueBytes)); err == nil {
		t.Error("get of a version never written accepted")
	}
	put := &pending{op: op{key: 3, ver: 4}}
	if err := s.check(put, []byte("cas-fail")); err == nil {
		t.Error("put with a non-ok result accepted")
	}
	if err := s.check(put, kvstore.ResultOK); err != nil || s.acked[3] != 4 {
		t.Errorf("ok put: err %v, acked %d; want nil, 4", err, s.acked[3])
	}
}

// TestDesignMatchesBenchmarkFile keeps the design record, BENCHMARK.json
// and the metrics the program emits in step.
func TestDesignMatchesBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	var names, benchNames []string
	for _, w := range ws {
		names = append(names, w.Name)
	}
	for _, w := range bench.Workloads {
		benchNames = append(benchNames, w.Name)
	}
	var gated struct {
		Gated struct{ Workloads []string }
	}
	if err := json.Unmarshal(designJSON, &gated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gated.Gated.Workloads, benchNames) {
		t.Errorf("design.json gates %v, BENCHMARK.json runs %v", gated.Gated.Workloads, benchNames)
	}
	for _, n := range benchNames {
		if _, err := findWorkload(n); err != nil {
			t.Error(err)
		}
	}
	known := map[string]bool{}
	for _, m := range bench.EndToEnd {
		known[m.Name] = true
	}
	emitted := layerMetrics(tracedWindow{completed: 1})
	for _, m := range bench.PerLayer {
		known[m.Name] = true
		if _, ok := emitted[m.Name]; !ok {
			t.Errorf("per-layer metric %s is not emitted", m.Name)
		}
	}
	if len(emitted) != len(bench.PerLayer) {
		t.Errorf("program emits %d per-layer metrics, BENCHMARK.json lists %d", len(emitted), len(bench.PerLayer))
	}
	var d struct {
		Predictions []struct {
			Metrics []string
			Moves   [][2]string
			FlatOn  []string `json:"flat_on"`
		}
	}
	if err := json.Unmarshal(designJSON, &d); err != nil {
		t.Fatal(err)
	}
	isWorkload := map[string]bool{}
	for _, n := range names {
		isWorkload[n] = true
	}
	for _, p := range d.Predictions {
		for _, m := range p.Metrics {
			if !known[m] {
				t.Errorf("prediction names unknown metric %s", m)
			}
		}
		for _, mv := range p.Moves {
			if !known[mv[0]] || !isWorkload[mv[1]] {
				t.Errorf("prediction move %v names an unknown metric or workload", mv)
			}
		}
		for _, w := range p.FlatOn {
			if !isWorkload[w] {
				t.Errorf("prediction names unknown workload %s", w)
			}
		}
	}
	if !bytes.Contains(designJSON, []byte(`"why"`)) {
		t.Error("design.json lost its why sentences")
	}
}
