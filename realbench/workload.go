package main

import (
	"bytes"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strconv"

	"bftkit/internal/kvstore"
)

// design.json is the benchmark's design record: workload parameters,
// the reason each workload exists, and the layer predictions later
// changes cite. The program reads its workload table from it, so the
// record and the runs cannot drift apart.
//
//go:embed design.json
var designJSON []byte

// workload is one traffic mix the benchmark runs.
type workload struct {
	Name        string `json:"name"`
	Protocol    string `json:"protocol"`
	Sessions    int    `json:"sessions"`
	Outstanding int    `json:"outstanding"`
	ValueBytes  int    `json:"value_bytes"`
	Keys        int    `json:"keys_per_session"`
	// Mix is "put" (every op a Put to a seeded random key) or "put-get"
	// (alternating Put and Get over a keyspace written during set-up).
	Mix string `json:"mix"`
	// RSSAfter is the request count, counted from the end of warm-up, at
	// which peak RSS is read. The program's memory grows with the requests
	// it has served, so a fixed amount of work, not a fixed time, keeps
	// the memory reading apart from speed.
	RSSAfter int64  `json:"rss_after_requests"`
	Why      string `json:"why"`
}

func loadWorkloads() ([]workload, error) {
	var d struct {
		Workloads []workload `json:"workloads"`
	}
	if err := json.Unmarshal(designJSON, &d); err != nil {
		return nil, fmt.Errorf("parse design.json: %w", err)
	}
	for _, w := range d.Workloads {
		if w.Sessions < 1 || w.Outstanding < 1 || w.Keys < 1 || w.ValueBytes < minValueBytes || w.RSSAfter < 1 ||
			(w.Mix != "put" && w.Mix != "put-get") {
			return nil, fmt.Errorf("design.json: workload %q is malformed", w.Name)
		}
	}
	return d.Workloads, nil
}

func findWorkload(name string) (workload, error) {
	ws, err := loadWorkloads()
	if err != nil {
		return workload{}, err
	}
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// preloadOps is how many of a session's first ops belong to set-up: the
// whole keyspace for a put-get mix (every Get must find a written key),
// otherwise the single first request.
func (w workload) preloadOps() int {
	if w.Mix == "put-get" {
		return w.Keys
	}
	return 1
}

func keyName(session, idx int) string { return fmt.Sprintf("s%d/k%03d", session, idx) }

// minValueBytes leaves room for the longest header plus the checksum.
const minValueBytes = 32

// value is the self-describing value written as version ver of key:
// "key#ver|", seeded filler, and an 8-byte FNV-64a checksum over the seed
// and everything before it. A Get result is valid only if it is exactly
// value(seed, key, v, size) for a version v the workload wrote.
func value(seed int64, key string, ver uint32, size int) []byte {
	buf := make([]byte, 0, size)
	buf = append(buf, key...)
	buf = append(buf, '#')
	buf = strconv.AppendUint(buf, uint64(ver), 10)
	buf = append(buf, '|')
	h := fnv.New64a()
	h.Write([]byte(key))
	r := rand.New(rand.NewPCG(uint64(seed), h.Sum64()^uint64(ver)))
	for len(buf) < size-8 {
		x := r.Uint64()
		for i := 0; i < 8 && len(buf) < size-8; i++ {
			buf = append(buf, 'a'+byte(x%26))
			x >>= 8
		}
	}
	return binary.BigEndian.AppendUint64(buf, checksum(seed, buf))
}

func checksum(seed int64, b []byte) uint64 {
	h := fnv.New64a()
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], uint64(seed))
	h.Write(s[:])
	h.Write(b)
	return h.Sum64()
}

// parseValue checks that b is a value this workload wrote for key and
// returns its version.
func parseValue(seed int64, key string, size int, b []byte) (uint32, error) {
	if len(b) != size {
		return 0, fmt.Errorf("value for %s has %d bytes, want %d", key, len(b), size)
	}
	hash := bytes.IndexByte(b, '#')
	bar := bytes.IndexByte(b, '|')
	if hash < 0 || bar < hash || string(b[:hash]) != key {
		return 0, fmt.Errorf("value for %s names another key or has no header", key)
	}
	ver, err := strconv.ParseUint(string(b[hash+1:bar]), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("value for %s: bad version: %v", key, err)
	}
	if binary.BigEndian.Uint64(b[size-8:]) != checksum(seed, b[:size-8]) {
		return 0, fmt.Errorf("value for %s: checksum mismatch", key)
	}
	if !bytes.Equal(b, value(seed, key, uint32(ver), size)) {
		return 0, fmt.Errorf("value for %s: bytes differ from version %d", key, ver)
	}
	return uint32(ver), nil
}

// op is one generated request.
type op struct {
	raw []byte
	get bool
	key int
	ver uint32 // version a Put writes
}

// opGen yields one session's op sequence, a pure function of (seed,
// session): same seed, same keys, order and value bytes.
type opGen struct {
	w       workload
	seed    int64
	session int
	rng     *rand.Rand
	n       int
	issued  []uint32 // highest version generated per key
}

func newOpGen(w workload, seed int64, session int) *opGen {
	return &opGen{
		w:       w,
		seed:    seed,
		session: session,
		rng:     rand.New(rand.NewPCG(uint64(seed), uint64(session)+1)),
		issued:  make([]uint32, w.Keys),
	}
}

func (g *opGen) next() op {
	defer func() { g.n++ }()
	if g.w.Mix == "put-get" {
		if g.n < g.w.Keys {
			return g.put(g.n)
		}
		if (g.n-g.w.Keys)%2 == 1 {
			k := g.rng.IntN(g.w.Keys)
			return op{raw: kvstore.Get(keyName(g.session, k)), get: true, key: k}
		}
	}
	return g.put(g.rng.IntN(g.w.Keys))
}

func (g *opGen) put(k int) op {
	g.issued[k]++
	v := g.issued[k]
	name := keyName(g.session, k)
	return op{raw: kvstore.Put(name, value(g.seed, name, v, g.w.ValueBytes)), key: k, ver: v}
}
