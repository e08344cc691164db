package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net"
	"testing"
	"time"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/query"
	"btreeperf/internal/server"
)

// streamHash hashes the wire frames of a connection's first n ops.
func streamHash(w *workload, seed uint64, conn, n int) string {
	g := newGenerator(w, seed, conn)
	h := sha256.New()
	var buf []byte
	for i := 0; i < n; i++ {
		buf = server.AppendRequest(buf[:0], g.next().request(w.scanLimit))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOpStreamPinned pins every workload's op streams for seed 1: a
// change to the generator or the workloads changes what the benchmark
// measures and must show here.
func TestOpStreamPinned(t *testing.T) {
	want := map[string][conns]string{
		"mem-read": {
			"ab85152e36007278a72f20b26c14ec6dd8cec355d4c542e9c97ed81748059c6d",
			"5f85209216633daaf63c4d7b2123ae723ff89ab5cea4117eb7c59829210e653e",
		},
		"mem-scan-olc": {
			"55cfd8cbc2e00906ef04dc9f05e1947ba9e22d50b987019924249de837188bb0",
			"3fcfab3005c2da19a12822059b7b4245b6827d09a18d65deec084f44e5346da4",
		},
		"disk-write": {
			"80ea9805e8068b04dcd80eb7b9dc1988a8023f43aea58310dbf36b88a299e5d3",
			"bf74d3abfd22dfca84fde6bf15e323a5105935b0264ae353f9b3ca791ba5ddc8",
		},
	}
	for i := range workloads {
		w := &workloads[i]
		for c := 0; c < conns; c++ {
			got := streamHash(w, 1, c, 20000)
			if got != want[w.name][c] {
				t.Errorf("%s connection %d: stream hash %s, want %s", w.name, c, got, want[w.name][c])
			}
			if again := streamHash(w, 1, c, 20000); again != got {
				t.Errorf("%s connection %d: same seed, different stream", w.name, c)
			}
		}
		if streamHash(w, 1, 0, 1000) == streamHash(w, 2, 0, 1000) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", w.name)
		}
	}
}

// TestGeneratorKeepsMutationsApart checks the property the answer check
// relies on: a connection mutates only its own rows, never one it
// mutated within its last depth ops, and every key lies in the universe.
func TestGeneratorKeepsMutationsApart(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for c := 0; c < conns; c++ {
			g := newGenerator(w, 7, c)
			last := make(map[uint32]int)
			for pos := 0; pos < 200000; pos++ {
				o := g.next()
				if rowOf(keyOf(o.row)) != uint64(o.row) || int(o.row) >= 2*w.rows {
					t.Fatalf("%s: row %d outside the universe", w.name, o.row)
				}
				if !o.mutation() {
					continue
				}
				if int(o.row)%conns != c {
					t.Fatalf("%s connection %d mutates row %d of another connection", w.name, c, o.row)
				}
				if p, ok := last[o.row]; ok && pos-p < depth {
					t.Fatalf("%s: row %d mutated at %d and %d", w.name, o.row, p, pos)
				}
				if o.kind == server.OpPut && rowOfVal(o.val) != o.row {
					t.Fatalf("%s: put value %#x does not carry row %d", w.name, o.val, o.row)
				}
				last[o.row] = pos
			}
		}
	}
}

// TestCheckerUnit feeds the model deliberately wrong answers.
func TestCheckerUnit(t *testing.T) {
	tab := newTable(1000)
	row := uint32(10)
	now := nanotime()
	ok := server.Response{Status: server.StatusOK, HasVal: true, Val: uint64(row)}
	if err := tab.checkGet(row, now, ok); err != nil {
		t.Fatalf("right get answer rejected: %v", err)
	}
	for _, bad := range []server.Response{
		{Status: server.StatusOK, HasVal: true, Val: uint64(row) + 1},
		{Status: server.StatusMiss},
		{Status: server.StatusUnavail},
	} {
		if tab.checkGet(row, now, bad) == nil {
			t.Errorf("wrong get answer %+v accepted", bad)
		}
	}

	// A put of a present row must answer Miss (replaced).
	put := op{kind: server.OpPut, row: row, val: 1<<33 | uint64(row)}
	tab.begin(row)
	if tab.finish(put, server.StatusOK, nanotime()) == nil {
		t.Error("put of a present row answered OK was accepted")
	}
	// While a mutation is in flight either value is accepted, but not a
	// value of another row.
	tab.begin(row)
	sent := nanotime()
	if err := tab.checkGet(row, sent, server.Response{Status: server.StatusMiss}); err != nil {
		t.Errorf("get racing a mutation rejected: %v", err)
	}
	if tab.checkGet(row, sent, server.Response{Status: server.StatusOK, HasVal: true, Val: 11}) == nil {
		t.Error("another row's value accepted for a racing get")
	}
	tab.finish(op{kind: server.OpDel, row: row}, server.StatusOK, nanotime())

	// Scans: the exact page, then one with a key left out and one with
	// a wrong value.
	lo := tab.sorted[100]
	scan := op{kind: server.OpScan, row: uint32(rowOf(lo)), hi: tab.sorted[140]}
	var page []query.KV
	for _, k := range tab.sorted[100:140] {
		if r := uint32(rowOf(k)); int(r) < tab.rows && r != row {
			page = append(page, query.KV{Key: k, Val: uint64(r)})
		}
	}
	sent = nanotime()
	good := server.Response{Status: server.StatusOK, Page: true, Entries: page}
	if err := tab.checkScan(scan, 64, sent, good); err != nil {
		t.Fatalf("right scan page rejected: %v", err)
	}
	missing := good
	missing.Entries = append(append([]query.KV(nil), page[:3]...), page[4:]...)
	if tab.checkScan(scan, 64, sent, missing) == nil {
		t.Error("scan page missing a key accepted")
	}
	wrong := good
	wrong.Entries = append([]query.KV(nil), page...)
	wrong.Entries[5].Val++
	if tab.checkScan(scan, 64, sent, wrong) == nil {
		t.Error("scan page with a wrong value accepted")
	}
}

// corruptEngine answers a get of every seventh row with a value one
// write later than stored.
type corruptEngine struct{ *memEngine }

func (e corruptEngine) Get(key int64) (uint64, bool, error) {
	v, ok, err := e.memEngine.Get(key)
	if ok && rowOf(key)%7 == 0 {
		v += 1 << 33
	}
	return v, ok, err
}

// runAgainst serves a small mem-read table from eng and drives the load
// at it for a short window.
func runAgainst(t *testing.T, eng server.Engine, w *workload) loadResult {
	t.Helper()
	s := server.New(server.Config{Engines: []server.Engine{eng}, Prefill: w.rows})
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()
	l, err := startLoad(ln.Addr().String(), w, newTable(w.rows), 3, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.openWindow(1, time.Second)
	time.Sleep(300 * time.Millisecond)
	l.closeWindow()
	l.finish()
	return l.result()
}

// TestWrongAnswerCaught drives the real load path against a server
// whose engine answers some gets wrongly, and against an honest one.
func TestWrongAnswerCaught(t *testing.T) {
	w := workloads[0]
	w.rows = 5000
	honest := runAgainst(t, newMemEngine(cbtree.LinkType, w.cap, nil), &w)
	if honest.wrong != 0 || honest.err != nil || honest.completed == 0 {
		t.Fatalf("honest server: %d wrong of %d (%v)", honest.wrong, honest.completed, honest.err)
	}
	bad := runAgainst(t, corruptEngine{newMemEngine(cbtree.LinkType, w.cap, nil)}, &w)
	if bad.wrong == 0 || bad.err == nil {
		t.Fatalf("corrupt server: no wrong answer caught in %d answers", bad.completed)
	}
	t.Logf("caught %d wrong answers of %d; first: %v", bad.wrong, bad.completed, bad.err)
}
