package main

import (
	"fmt"
	"math/rand/v2"

	"btreeperf/internal/server"
)

// workload is one traffic mix against one btserved configuration. Every
// workload is a closed loop of conns connections, each keeping depth
// requests in flight.
type workload struct {
	name   string
	engine string // "mem" or "disk"
	alg    string // btserved -alg
	shards int
	cap    int   // node capacity (btserved -cap)
	rows   int   // rows loaded before the first request
	ckpt   int64 // disk: btserved -checkpoint-ops; 0 = server default

	get, put, del, scan float64 // op mix, summing to 1
	zipf                float64 // key-skew exponent s > 1; 0 = uniform
	scanLimit           int     // entries per scan page
}

const (
	conns = 2  // load connections
	depth = 16 // requests in flight per connection
)

// workloads are the benchmark's traffic mixes; NOTES.md says why each
// exists. Every mix issues every op class, so every end-to-end latency
// metric is defined on every workload.
var workloads = []workload{
	{
		name: "mem-read", engine: "mem", alg: "link-type", shards: 1, cap: 64, rows: 1_000_000,
		get: 0.945, put: 0.04, del: 0.01, scan: 0.005, scanLimit: 64,
	},
	{
		name: "mem-scan-olc", engine: "mem", alg: "olc", shards: 2, cap: 64, rows: 1_000_000,
		get: 0.30, put: 0.35, del: 0.15, scan: 0.20, zipf: 1.1, scanLimit: 64,
	},
	{
		name: "disk-write", engine: "disk", alg: "link-type", shards: 1, cap: 128, rows: 1_000_000, ckpt: 32768,
		get: 0.295, put: 0.50, del: 0.20, scan: 0.005, scanLimit: 64,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// The key universe. Row i of the table holds key i·keyMul mod 2^40 and,
// until it is first written, value i: exactly what btserved -prefill
// loads, so the benchmark knows the table without reading it back. Rows
// [0, rows) are loaded; rows [rows, 2·rows) start absent and are where
// puts insert. keyMul is odd, so row ↔ key is a bijection on 40 bits.
const (
	keyMul  = 2654435761
	keyBits = 40
	keyMask = 1<<keyBits - 1
)

// keyInv is keyMul's inverse mod 2^40 (Newton's iteration doubles the
// number of correct low bits each step).
var keyInv = func() uint64 {
	x := uint64(keyMul)
	for i := 0; i < 6; i++ {
		x *= 2 - keyMul*x
	}
	return x & keyMask
}()

func keyOf(row uint32) int64 { return int64(uint64(row) * keyMul & keyMask) }

// rowOf inverts keyOf; keys outside the universe map to rows >= 2·rows.
func rowOf(key int64) uint64 {
	if key < 0 || key > keyMask {
		return 1 << 63
	}
	return uint64(key) * keyInv & keyMask
}

// rowOfVal is the row a stored value belongs to: every value the
// benchmark writes carries its row in the low 32 bits.
func rowOfVal(v uint64) uint32 { return uint32(v) }

// op is one generated request.
type op struct {
	kind byte // server.OpGet, OpPut, OpDel or OpScan
	row  uint32
	val  uint64 // put
	hi   int64  // scan: exclusive upper bound
}

func (o op) mutation() bool { return o.kind == server.OpPut || o.kind == server.OpDel }

func (o op) request(limit int) server.Request {
	r := server.Request{Op: o.kind, Key: keyOf(o.row), Val: o.val}
	if o.kind == server.OpScan {
		r.Hi, r.Limit = o.hi, limit
	}
	return r
}

// generator produces one connection's op stream. The stream depends only
// on the workload, the seed and the connection, never on responses or
// timing, so a seed pins it byte for byte.
//
// A connection mutates only its own rows (row parity = connection), and
// never a row it mutated within its last depth ops. A connection has at
// most depth requests in flight, so every row has at most one mutation
// in flight at any moment, and its value after that mutation completes
// is known exactly.
type generator struct {
	w        *workload
	conn     uint32
	rng      *rand.Rand
	zipfRows *rand.Zipf // over loaded rows; nil = uniform
	zipfAll  *rand.Zipf // over the whole universe
	span     int64      // scan range width in key space
	writes   uint64
	pos      int
	recent   [depth]uint32 // row+1 of the mutation at pos%depth, 0 for none
}

func newGenerator(w *workload, seed uint64, conn int) *generator {
	g := &generator{
		w:    w,
		conn: uint32(conn),
		rng:  rand.New(rand.NewPCG(seed, uint64(conn))),
		// ~1.25 page limits of loaded rows per range, so most pages fill.
		span: int64(float64(w.scanLimit) * 1.25 * float64(uint64(1)<<keyBits) / float64(w.rows)),
	}
	if w.zipf > 0 {
		g.zipfRows = rand.NewZipf(g.rng, w.zipf, 1, uint64(w.rows-1))
		g.zipfAll = rand.NewZipf(g.rng, w.zipf, 1, uint64(2*w.rows-1))
	}
	return g
}

func (g *generator) pick(all bool) uint32 {
	switch {
	case all && g.zipfAll != nil:
		return uint32(g.zipfAll.Uint64())
	case g.zipfRows != nil:
		return uint32(g.zipfRows.Uint64())
	case all:
		return uint32(g.rng.IntN(2 * g.w.rows))
	default:
		return uint32(g.rng.IntN(g.w.rows))
	}
}

// pickOwn draws a row of this connection not mutated in its last depth
// ops.
func (g *generator) pickOwn(all bool) uint32 {
	for {
		r := g.pick(all)&^1 | g.conn
		clash := false
		for _, m := range g.recent {
			if m == r+1 {
				clash = true
				break
			}
		}
		if !clash {
			return r
		}
	}
}

func (g *generator) next() op {
	var o op
	x := g.rng.Float64()
	w := g.w
	switch {
	case x < w.get:
		o = op{kind: server.OpGet, row: g.pick(false)}
	case x < w.get+w.put:
		g.writes++
		o = op{kind: server.OpPut, row: g.pickOwn(true)}
		o.val = (g.writes<<1|uint64(g.conn))<<32 | uint64(o.row)
	case x < w.get+w.put+w.del:
		o = op{kind: server.OpDel, row: g.pickOwn(false)}
	default:
		o = op{kind: server.OpScan, row: g.pick(false)}
		o.hi = keyOf(o.row) + g.span
	}
	slot := g.pos % depth
	g.recent[slot] = 0
	if o.mutation() {
		g.recent[slot] = o.row + 1
	}
	g.pos++
	return o
}
