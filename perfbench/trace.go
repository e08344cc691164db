package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sync/atomic"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/lock"
	"btreeperf/internal/metrics"
	"btreeperf/internal/query"
	"btreeperf/internal/server"
)

// Span names. A request span runs from the client's send to its
// response; an engine span covers one call into a shard's engine.
const (
	spanReqGet uint8 = iota
	spanReqPut
	spanReqDel
	spanReqScan
	spanGet
	spanPut
	spanDel
	spanScan
	spanCommit
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"request.get", "request.put", "request.del", "request.scan",
	"engine.get", "engine.put", "engine.del", "engine.scan", "engine.commit",
}

// span is one recorded interval. Engine calls carry no request id (the
// engine sees only keys), so their parent is unknown and left 0; key
// lets a reader match an engine span to the request that caused it.
type span struct {
	start, end int64 // nanotime
	id, parent uint64
	key        int64
	n          int32 // scan: entries returned
	name       uint8
}

// tracer keeps spans in a preallocated buffer. Once it is full, spans
// are still timed (so the tracing cost stays the same) but dropped.
type tracer struct {
	on      atomic.Bool
	next    atomic.Int64
	ids     atomic.Uint64
	dropped atomic.Int64
	spans   []span
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, capacity)} }

func (t *tracer) add(s span) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	s.id = t.ids.Add(1)
	t.spans[i] = s
}

// begin returns a start time, or 0 when t is nil or not recording.
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return nanotime()
}

func (t *tracer) engine(name uint8, start int64, key int64, n int) {
	if start == 0 {
		return
	}
	t.add(span{start: start, end: nanotime(), key: key, n: int32(n), name: name})
}

func (t *tracer) request(kind byte, sent, now int64) {
	name := spanReqGet
	switch kind {
	case server.OpPut:
		name = spanReqPut
	case server.OpDel:
		name = spanReqDel
	case server.OpScan:
		name = spanReqScan
	}
	t.add(span{start: sent, end: now, name: name})
}

// recorded returns the spans kept.
func (t *tracer) recorded() []span {
	return t.spans[:min(t.next.Load(), int64(len(t.spans)))]
}

// write stores the recorded spans at path: a text header line, then one
// little-endian record per span (name u8, id u64, parent u64, key i64,
// start i64, end i64, n i32; times in ns on one monotonic clock).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(bw, "perfbench spans v1 names=%v dropped=%d\n", spanNames, t.dropped.Load())
	var rec [45]byte
	for _, s := range t.recorded() {
		rec[0] = s.name
		binary.LittleEndian.PutUint64(rec[1:], s.id)
		binary.LittleEndian.PutUint64(rec[9:], s.parent)
		binary.LittleEndian.PutUint64(rec[17:], uint64(s.key))
		binary.LittleEndian.PutUint64(rec[25:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[33:], uint64(s.end))
		binary.LittleEndian.PutUint32(rec[41:], uint32(s.n))
		bw.Write(rec[:])
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats summarizes the recorded spans of one name.
type spanStats struct {
	count   int
	totalNs int64
	median  float64 // ns
	keys    int64   // scan entries
}

func (t *tracer) stats() [nSpanNames]spanStats {
	var out [nSpanNames]spanStats
	var durs [nSpanNames][]int64
	for _, s := range t.recorded() {
		d := s.end - s.start
		st := &out[s.name]
		st.count++
		st.totalNs += d
		st.keys += int64(s.n)
		durs[s.name] = append(durs[s.name], d)
	}
	for i := range durs {
		if len(durs[i]) > 0 {
			slices.Sort(durs[i])
			out[i].median = float64(durs[i][len(durs[i])/2])
		}
	}
	return out
}

// memEngine serves a shard from an in-memory cbtree instrumented with a
// per-level telemetry probe, as server.New does for btserved's mem
// engine, timing each call when tr is recording.
type memEngine struct {
	t     *cbtree.Tree
	probe *metrics.TreeProbe
	tr    *tracer
}

func newMemEngine(alg cbtree.Algorithm, capacity int, tr *tracer) *memEngine {
	return &memEngine{t: cbtree.New(capacity, alg), probe: metrics.NewTreeProbe(), tr: tr}
}

// instrument attaches the probe; btserved does so after the prefill.
func (e *memEngine) instrument() {
	e.t.Instrument(func(level int) lock.Probe { return e.probe.Level(level) })
}

func (e *memEngine) Get(key int64) (uint64, bool, error) {
	s := e.tr.begin()
	v, ok := e.t.Search(key)
	e.tr.engine(spanGet, s, key, 0)
	return v, ok, nil
}

func (e *memEngine) Put(key int64, val uint64) (bool, error) {
	s := e.tr.begin()
	ok := e.t.Insert(key, val)
	e.tr.engine(spanPut, s, key, 0)
	return ok, nil
}

func (e *memEngine) Del(key int64) (bool, error) {
	s := e.tr.begin()
	ok := e.t.Delete(key)
	e.tr.engine(spanDel, s, key, 0)
	return ok, nil
}

func (e *memEngine) Scan(lo, hi int64, limit int, dst []query.KV) ([]query.KV, bool, error) {
	if hi <= lo || limit <= 0 {
		return dst, false, nil
	}
	s := e.tr.begin()
	base := len(dst)
	more := false
	e.t.Range(lo, hi-1, func(k int64, v uint64) bool {
		if len(dst)-base == limit {
			more = true
			return false
		}
		dst = append(dst, query.KV{Key: k, Val: v})
		return true
	})
	e.tr.engine(spanScan, s, lo, len(dst)-base)
	return dst, more, nil
}

func (e *memEngine) Commit() error {
	s := e.tr.begin()
	e.tr.engine(spanCommit, s, 0, 0)
	return nil
}

func (e *memEngine) Kind() string      { return "mem" }
func (e *memEngine) Algorithm() string { return e.t.Algorithm().String() }
func (e *memEngine) Cap() int          { return e.t.Cap() }
func (e *memEngine) Len() int          { return e.t.Len() }
func (e *memEngine) Height() int       { return e.t.Height() }
func (e *memEngine) Poisoned() error   { return nil }
func (e *memEngine) Close() error      { return nil }

func (e *memEngine) Stats() server.EngineStats {
	ts := e.t.Stats()
	return server.EngineStats{
		Splits: ts.Splits, Restarts: ts.Restarts, Crossings: ts.Crossings,
		ReadRestarts: ts.ReadRestarts, ReadFallbacks: ts.ReadFallbacks,
	}
}

// diskEngine times a DiskEngine's calls. Embedding the pointer keeps
// Journal and DurableSeq, so the server still sees a sequence engine.
type diskEngine struct {
	*server.DiskEngine
	tr *tracer
}

func (e diskEngine) Get(key int64) (uint64, bool, error) {
	s := e.tr.begin()
	v, ok, err := e.DiskEngine.Get(key)
	e.tr.engine(spanGet, s, key, 0)
	return v, ok, err
}

func (e diskEngine) Put(key int64, val uint64) (bool, error) {
	s := e.tr.begin()
	ok, err := e.DiskEngine.Put(key, val)
	e.tr.engine(spanPut, s, key, 0)
	return ok, err
}

func (e diskEngine) Del(key int64) (bool, error) {
	s := e.tr.begin()
	ok, err := e.DiskEngine.Del(key)
	e.tr.engine(spanDel, s, key, 0)
	return ok, err
}

func (e diskEngine) Scan(lo, hi int64, limit int, dst []query.KV) ([]query.KV, bool, error) {
	s := e.tr.begin()
	base := len(dst)
	dst, more, err := e.DiskEngine.Scan(lo, hi, limit, dst)
	e.tr.engine(spanScan, s, lo, len(dst)-base)
	return dst, more, err
}

func (e diskEngine) Commit() error {
	s := e.tr.begin()
	err := e.DiskEngine.Commit()
	e.tr.engine(spanCommit, s, 0, 0)
	return err
}
