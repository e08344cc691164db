package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/diskbtree"
	"btreeperf/internal/journal"
	"btreeperf/internal/lock"
	"btreeperf/internal/metrics"
	"btreeperf/internal/server"
)

var algorithms = map[string]cbtree.Algorithm{"link-type": cbtree.LinkType, "olc": cbtree.OLC}

// loadedRows returns the loaded rows' keys in ascending order with their
// values.
func (b *bench) loadedRows() ([]int64, []uint64) {
	rows := make([]uint32, b.w.rows)
	for i := range rows {
		rows[i] = uint32(i)
	}
	slices.SortFunc(rows, func(x, y uint32) int { return cmp.Compare(keyOf(x), keyOf(y)) })
	keys := make([]int64, len(rows))
	vals := make([]uint64, len(rows))
	for i, r := range rows {
		keys[i], vals[i] = keyOf(r), uint64(r)
	}
	return keys, vals
}

// bulkLoad builds the disk table the disk workloads start from, under
// pristine/ in the run directory. btserved recovers it at start-up.
func (b *bench) bulkLoad() error {
	dir := filepath.Join(b.dir, "pristine")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	keys, vals := b.loadedRows()
	t0 := time.Now()
	t, err := diskbtree.BulkLoad(filepath.Join(dir, "t.db"),
		diskbtree.Options{Cap: b.w.cap, CacheNodes: 4096, Durable: true}, keys, vals, 0.7)
	if err != nil {
		return fmt.Errorf("bulk load: %w", err)
	}
	if err := t.Close(); err != nil {
		return fmt.Errorf("bulk load: %w", err)
	}
	fmt.Printf("bulk load: %d rows in %.2fs (not part of setup_s)\n", len(keys), time.Since(t0).Seconds())
	return nil
}

// copyTable copies the pristine disk table into a fresh directory and
// returns the path of its data file.
func (b *bench) copyTable(name string) (string, error) {
	src := filepath.Join(b.dir, "pristine")
	dst := filepath.Join(b.dir, name)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return "", err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return "", err
	}
	for _, e := range ents {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return "", err
		}
	}
	return filepath.Join(dst, "t.db"), nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// perLayer measures the per-layer metrics: counters of an untraced
// btserved window, spans of an in-process window that records them in
// alternate slices (the others give the tracing overhead), and direct
// timed calls into the packages.
func (b *bench) perLayer(top string) error {
	path := filepath.Join(b.dir, "pristine", "t.db")
	if b.w.engine == "disk" {
		var err error
		if path, err = b.copyTable("counters"); err != nil {
			return err
		}
	}
	srv, _, err := launch(b.bin, b.serverArgs(path), filepath.Join(b.dir, "btserved.log"))
	if err != nil {
		return err
	}
	wn, err := b.measure(srv, recordOps)
	if stopErr := srv.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	b.counters(wn)

	tr := newTracer(spanBuffer)
	plain, traced, err := b.inProcess(tr)
	if err != nil {
		return err
	}
	b.set("trace.overhead_cpu_us_per_op", traced.cpuUsPerOp-plain.cpuUsPerOp, "us")
	for cl, name := range []string{"read", "write", "scan"} {
		b.set("trace.overhead_"+name+"_p50_us", traced.p50[cl]-plain.p50[cl], "us")
	}
	b.spanMetrics(tr)
	if err := os.MkdirAll(filepath.Join(top, "trace"), 0o755); err != nil {
		return err
	}
	spansPath := filepath.Join(top, "trace", b.w.name+".spans")
	if err := tr.write(spansPath); err != nil {
		return err
	}
	fmt.Printf("spans: %d kept, %d dropped, written to %s\n", len(tr.recorded()), tr.dropped.Load(), spansPath)

	codec, err := codecNs(b.recorded, b.w.scanLimit)
	if err != nil {
		return err
	}
	b.set("server.codec_ns_per_op", codec, "ns")
	probe, hit := 0.0, 0.0
	if b.w.engine == "mem" {
		if probe, err = b.lockProbeNs(); err != nil {
			return err
		}
	} else if hit, err = b.cacheHitRatio(); err != nil {
		return err
	}
	b.set("lock.probe_ns_per_op", probe, "ns")
	b.set("diskbtree.cache_hit_ratio", hit, "ratio")
	return nil
}

// counters sets the metrics read from /proc and /metrics over the
// untraced window.
func (b *bench) counters(wn *window) {
	ops := float64(wn.ops)
	m := wn.m
	muts := float64(max(m.mutations(), 1))
	b.set("server.syscalls_per_op", (wn.io["syscr"]+wn.io["syscw"])/ops, "count")
	b.set("cbtree.read_restarts_per_kop", 1e3*float64(m.ReadRestarts)/ops, "count")
	b.set("cbtree.read_fallbacks_per_kop", 1e3*float64(m.ReadFallbacks)/ops, "count")
	b.set("cbtree.splits_per_kop", 1e3*float64(m.Splits)/ops, "count")
	b.set("cbtree.root_rho_w", m.RootRhoW, "ratio")
	keysPerPage := 0.0
	if wn.r.pages > 0 {
		keysPerPage = float64(wn.r.pageKeys) / float64(wn.r.pages) / float64(b.w.scanLimit)
	}
	b.set("query.keys_per_page", keysPerPage, "ratio")

	opsPerFsync, recBytes := 0.0, 0.0
	if m.Fsyncs > 0 {
		opsPerFsync = float64(m.SeqAppended) / float64(m.Fsyncs)
	}
	if m.OplogAppended > 0 {
		recBytes = float64(m.OplogBytes-journal.OplogHdrSize) / float64(m.OplogAppended)
	}
	b.set("journal.ops_per_fsync", opsPerFsync, "count")
	b.set("journal.bytes_per_op", recBytes*float64(m.SeqAppended)/muts, "B")
	b.set("diskbtree.checkpoints", float64(m.Checkpoints), "count")
	b.set("pagestore.write_bytes_per_op", wn.io["write_bytes"]/muts, "B")
	b.set("server.cpu_us_per_op", 1e6*wn.serverCPU/ops, "us")
	b.set("load.cpu_us_per_op", wn.loadUsPerOp(), "us")
	b.set("host.steal_pct", wn.stealPct, "%")
}

// spanMetrics sets the metrics computed from the traced window's spans.
func (b *bench) spanMetrics(tr *tracer) {
	st := tr.stats()
	var reqN int
	var reqNs, engNs int64
	for n := spanReqGet; n <= spanReqScan; n++ {
		reqN += st[n].count
		reqNs += st[n].totalNs
	}
	for n := spanGet; n <= spanCommit; n++ {
		engNs += st[n].totalNs
	}
	nonEngine := 0.0
	if reqN > 0 {
		nonEngine = float64(reqNs-engNs) / float64(reqN) / 1e3
	}
	b.set("server.nonengine_us_per_op", nonEngine, "us")
	mem, disk := st, st
	if b.w.engine == "mem" {
		disk = [nSpanNames]spanStats{}
	} else {
		mem = [nSpanNames]spanStats{}
	}
	b.set("cbtree.get_ns", mem[spanGet].median, "ns")
	b.set("cbtree.put_ns", mem[spanPut].median, "ns")
	b.set("cbtree.del_ns", mem[spanDel].median, "ns")
	scanPerKey := 0.0
	if mem[spanScan].keys > 0 {
		scanPerKey = float64(mem[spanScan].totalNs) / float64(mem[spanScan].keys)
	}
	b.set("cbtree.scan_ns_per_key", scanPerKey, "ns")
	b.set("diskbtree.get_ns", disk[spanGet].median, "ns")
	b.set("diskbtree.put_ns", disk[spanPut].median, "ns")
	b.set("journal.commit_us", st[spanCommit].median/1e3, "us")
}

// inprocResult is this process's CPU per op (load and server together)
// and the client-observed medians over one half of the in-process window.
type inprocResult struct {
	cpuUsPerOp float64
	p50        [nClasses]float64
}

// inProcess hosts the server in this process with server.New, each
// shard's engine wrapped in tr's span-recording decorator, and measures
// one window cut into slices that alternate between recording spans and
// not, so that the host's drift cancels out of the tracing overhead.
func (b *bench) inProcess(tr *tracer) (plain, traced inprocResult, err error) {
	// The hosted server sizes its worker pools from GOMAXPROCS, as
	// btserved does on this host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(2, runtime.NumCPU())))
	b.tab.reset()
	w := b.w
	alg := algorithms[w.alg]
	cfg := server.Config{Algorithm: alg, Capacity: w.cap}
	var mems []*memEngine
	for i := 0; i < w.shards; i++ {
		if w.engine == "mem" {
			e := newMemEngine(alg, w.cap, tr)
			mems = append(mems, e)
			cfg.Engines = append(cfg.Engines, e)
			continue
		}
		path, err := b.copyTable(fmt.Sprintf("inproc-%d", i))
		if err != nil {
			return plain, traced, err
		}
		de, err := server.NewDiskEngine(server.DiskEngineConfig{Path: path, Cap: w.cap, CheckpointOps: w.ckpt})
		if err != nil {
			return plain, traced, err
		}
		cfg.Engines = append(cfg.Engines, diskEngine{de, tr})
	}
	if w.engine == "mem" {
		cfg.Prefill = w.rows
	}
	s := server.New(cfg)
	for _, e := range mems {
		e.instrument()
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return plain, traced, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	defer func() {
		cancel()
		<-served
	}()

	l, err := startLoad(ln.Addr().String(), w, b.tab, b.seed, tr, 0)
	if err != nil {
		return plain, traced, err
	}
	defer l.finish()
	time.Sleep(warmup)
	t0 := time.Now()
	const n = 20
	sl := runWindow(l, n, b.window/n, nil, func(i int) { tr.on.Store(i%2 == 1) })
	tr.on.Store(false)
	secs := time.Since(t0).Seconds()
	l.finish()
	r := l.result()
	b.account(r)
	for odd := 0; odd < 2; odd++ {
		var set []int
		cpu := 0.0
		for i := odd; i < n; i += 2 {
			set = append(set, i)
			cpu += sl[i].loadCPU
		}
		lat := r.pooled(set)
		res := inprocResult{}
		ops := 0
		for cl := range lat {
			ops += len(lat[cl])
			res.p50[cl] = quantileUs(lat[cl], 0.5)
		}
		if ops == 0 {
			return plain, traced, fmt.Errorf("in-process window answered nothing")
		}
		res.cpuUsPerOp = 1e6 * cpu / float64(ops)
		name := []string{"untraced", "traced"}[odd]
		logWindow("in-process "+name, lat, int64(ops), secs/2)
		fmt.Printf("cpu: in-process %s %.3f us/op (load and server)\n", name, res.cpuUsPerOp)
		if odd == 0 {
			plain = res
		} else {
			traced = res
		}
	}
	logAnswers(r)
	return plain, traced, nil
}

// codecNs times the server's wire codec on the recorded exchanges:
// decoding each request frame and encoding its response, as the
// connection reader and writer do. The median of seven passes.
func codecNs(rec []exchange, limit int) (float64, error) {
	if len(rec) == 0 {
		return 0, fmt.Errorf("no exchanges recorded")
	}
	var frames []byte
	for _, x := range rec {
		frames = server.AppendRequest(frames, x.o.request(limit))
	}
	buf := make([]byte, server.MaxPayload)
	out := make([]byte, 0, server.MaxPayload+4)
	var passes []float64
	for p := 0; p < 7; p++ {
		br := bufio.NewReaderSize(bytes.NewReader(frames), 32<<10)
		t0 := time.Now()
		for i := range rec {
			if _, err := server.ReadRequest(br, buf); err != nil {
				return 0, fmt.Errorf("codec replay: %w", err)
			}
			out = server.AppendResponse(out[:0], rec[i].resp)
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(len(rec)))
	}
	return median(passes), nil
}

// replayOps is how many ops each load connection's stream replays in the
// direct measurements.
const replayOps = 100_000

// generators returns a fresh op stream per load connection.
func (b *bench) generators() []*generator {
	gens := make([]*generator, conns)
	for c := range gens {
		gens[c] = newGenerator(b.w, b.seed, c)
	}
	return gens
}

// replay applies the next n ops of every stream to apply, one goroutine
// per stream, and returns the CPU ns per op.
func replay(gens []*generator, n int, apply func(o op)) float64 {
	c0 := selfCPU()
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				apply(g.next())
			}
		}()
	}
	wg.Wait()
	return 1e9 * (selfCPU() - c0) / float64(len(gens)*n)
}

// lockProbeNs is the CPU cost per op of the per-level lock probes that
// btserved attaches to every in-memory tree: the workload's op streams
// replayed by two goroutines on a tree of the workload's size, probed
// minus unprobed, medians of three trees each.
func (b *bench) lockProbeNs() (float64, error) {
	keys, vals := b.loadedRows()
	alg := algorithms[b.w.alg]
	var plain, probed []float64
	for round := 0; round < 3; round++ {
		for _, withProbe := range []bool{false, true} {
			t, err := cbtree.BulkLoad(b.w.cap, alg, keys, vals, 0.7)
			if err != nil {
				return 0, err
			}
			if withProbe {
				p := metrics.NewTreeProbe()
				t.Instrument(func(level int) lock.Probe { return p.Level(level) })
			}
			ns := replay(b.generators(), replayOps, func(o op) {
				switch o.kind {
				case server.OpGet:
					t.Search(keyOf(o.row))
				case server.OpPut:
					t.Insert(keyOf(o.row), o.val)
				case server.OpDel:
					t.Delete(keyOf(o.row))
				default:
					n := 0
					t.Range(keyOf(o.row), o.hi-1, func(int64, uint64) bool { n++; return n < b.w.scanLimit })
				}
			})
			if withProbe {
				probed = append(probed, ns)
			} else {
				plain = append(plain, ns)
			}
		}
	}
	fmt.Printf("lock probe: unprobed %v ns/op, probed %v ns/op\n", plain, probed)
	return median(probed) - median(plain), nil
}

// cacheHitRatio opens a copy of the disk table's checkpoint image with
// btserved's default 4096-node buffer pool, replays the op streams
// (after a warm-up of a fifth as many ops) and reports the pool's hit
// ratio; DiskEngine does not expose its tree's cache statistics.
func (b *bench) cacheHitRatio() (float64, error) {
	path, err := b.copyTable("cache")
	if err != nil {
		return 0, err
	}
	t, err := diskbtree.Open(path+diskbtree.ImageSuffix, diskbtree.Options{Cap: b.w.cap, CacheNodes: 4096})
	if err != nil {
		return 0, err
	}
	defer t.Close()
	var mu sync.Mutex
	var firstErr error
	apply := func(o op) {
		var err error
		switch o.kind {
		case server.OpGet:
			_, _, err = t.Search(keyOf(o.row))
		case server.OpPut:
			_, err = t.Insert(keyOf(o.row), o.val)
		case server.OpDel:
			_, err = t.Delete(keyOf(o.row))
		default:
			n := 0
			err = t.ScanRange(keyOf(o.row), o.hi, func(int64, uint64) bool { n++; return n < b.w.scanLimit })
		}
		if err != nil {
			mu.Lock()
			firstErr = err
			mu.Unlock()
		}
	}
	gens := b.generators()
	replay(gens, replayOps/5, apply)
	s0 := t.CacheStats()
	replay(gens, replayOps, apply)
	s1 := t.CacheStats()
	if firstErr != nil {
		return 0, fmt.Errorf("cache replay: %w", firstErr)
	}
	hits, misses := s1.Hits-s0.Hits, s1.Misses-s0.Misses
	fmt.Printf("buffer pool: %d hits, %d misses, %d evictions over the replay\n", hits, misses, s1.Evictions-s0.Evictions)
	return float64(hits) / float64(max(hits+misses, 1)), nil
}
