// Command perfbench is the repository's serving benchmark. It runs one
// workload against the btserved binary built from this checkout, driven
// by a single load process (this one), checks every answer, and prints
// its metrics as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload mem-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off; with --trace 1 it reports the per-layer metrics, from
// /proc and /metrics counters of an untraced window, spans of a traced
// in-process window, and direct timed calls into the packages. NOTES.md
// describes the workloads, the metrics and their measured spread.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

const (
	warmup     = time.Second // load before each measured window
	setupRuns  = 5           // server launches per run; setup_s is their median
	recordOps  = 50_000      // exchanges recorded for the codec replay
	spanBuffer = 1 << 20     // spans kept by the traced window
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	w       *workload
	seed    uint64
	window  time.Duration
	bin     string // btserved binary
	dir     string // this run's scratch directory
	tab     *table
	res     result
	wrong   int64
	firstEr error

	recorded []exchange // connection 0's first exchanges (codec replay)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: mem-read, mem-scan-olc or disk-write")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same op streams")
		seconds = flag.Int("seconds", 10, "measured window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		bin     = flag.String("btserved", "", "btserved binary built from this checkout")
		dir     = flag.String("dir", ".bench_build", "directory for tables, logs and spans")
	)
	flag.Parse()
	// One P keeps the load process from competing with btserved for
	// both vCPUs of a 2-vCPU host; see NOTES.md.
	runtime.GOMAXPROCS(1)
	w, err := findWorkload(*name)
	if err == nil && (*bin == "" || *seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("need -btserved, -seconds >= 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := &bench{
		w:      w,
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		bin:    *bin,
		dir:    filepath.Join(*dir, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
		res:    result{Metrics: make(map[string]metric)},
	}
	if err := b.run(*trace == 1, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(b.res)
	fmt.Println(string(out))
}

func (b *bench) run(traced bool, top string) error {
	// Runs are sequential; a run directory left behind by a killed run
	// would hold hundreds of megabytes of tables.
	os.RemoveAll(filepath.Dir(b.dir))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.dir)
	fmt.Printf("workload %s seed %d window %v: %s engine, %s, %d shard(s), %d rows, mix get/put/del/scan %.3f/%.3f/%.3f/%.3f, zipf %.2f, %d conns x %d in flight\n",
		b.w.name, b.seed, b.window, b.w.engine, b.w.alg, b.w.shards, b.w.rows,
		b.w.get, b.w.put, b.w.del, b.w.scan, b.w.zipf, conns, depth)
	b.tab = newTable(b.w.rows)
	if b.w.engine == "disk" {
		if err := b.bulkLoad(); err != nil {
			return err
		}
	}
	var err error
	if traced {
		err = b.perLayer(top)
	} else {
		err = b.endToEnd()
	}
	if err != nil {
		return err
	}
	b.res.Correct = b.wrong == 0 && b.firstEr == nil
	if b.firstEr != nil {
		fmt.Println("FAILED:", b.firstEr)
	}
	return nil
}

func (b *bench) set(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// account folds a finished phase into the run's totals.
func (b *bench) account(r loadResult) {
	b.res.Attempted += r.attempted
	b.res.Failed += r.failed()
	b.wrong += r.wrong
	if b.firstEr == nil {
		b.firstEr = r.err
	}
	if b.firstEr == nil && r.attempted != r.completed {
		b.firstEr = fmt.Errorf("%d requests unanswered", r.attempted-r.completed)
	}
}

// serverArgs are the btserved flags of the workload, for a disk table at
// path.
func (b *bench) serverArgs(path string) []string {
	w := b.w
	args := []string{"-shards", fmt.Sprint(w.shards), "-cap", fmt.Sprint(w.cap)}
	if w.engine == "disk" {
		return append(args, "-engine", "disk", "-path", path, "-checkpoint-ops", fmt.Sprint(w.ckpt))
	}
	return append(args, "-alg", w.alg, "-prefill", fmt.Sprint(w.rows))
}

// slice is what one slice of a measured window cost.
type slice struct {
	serverCPU float64 // seconds; 0 for a server in this process
	loadCPU   float64 // seconds, this process
}

// runWindow runs l's measured window as n slices of length d, reading
// the server's CPU (serverCPU nil: the server runs in this process) and
// this process's CPU at every slice boundary. before, if set, runs at
// the start of each slice.
func runWindow(l *load, n int, d time.Duration, serverCPU func() float64, before func(i int)) []slice {
	if serverCPU == nil {
		serverCPU = func() float64 { return 0 }
	}
	out := make([]slice, n)
	s0, c0 := serverCPU(), selfCPU()
	t0 := time.Now()
	l.openWindow(n, d)
	for i := range out {
		if before != nil {
			before(i)
		}
		time.Sleep(time.Until(t0.Add(time.Duration(i+1) * d)))
		s1, c1 := serverCPU(), selfCPU()
		out[i] = slice{serverCPU: s1 - s0, loadCPU: c1 - c0}
		s0, c0 = s1, c1
	}
	l.closeWindow()
	return out
}

// window is what one measured window of an external btserved saw.
type window struct {
	r         loadResult
	secs      float64
	ops       int64              // answered by the server in the window
	serverCPU float64            // seconds
	loadCPU   float64            // seconds, this process
	m         serverMetrics      // counters accumulated over the window
	io        map[string]float64 // /proc/<pid>/io accumulated over the window
	rssMB     float64
	stealPct  float64
}

// loadUsPerOp is the load process's CPU per op: the window's yardstick
// for the host's speed.
func (wn *window) loadUsPerOp() float64 { return 1e6 * wn.loadCPU / float64(wn.ops) }

// measure drives srv for the warm-up and one window, reading the
// server's counters at the window's edges only (a /metrics read resets
// its windowed rates).
func (b *bench) measure(srv *btserved, recN int) (*window, error) {
	l, err := startLoad(srv.addr, b.w, b.tab, b.seed, nil, recN)
	if err != nil {
		return nil, err
	}
	defer l.finish()
	time.Sleep(warmup)
	pid := srv.pid()
	wn := &window{}
	m0, err0 := scrape(srv.httpAddr)
	io0, err1 := procFields(fmt.Sprintf("/proc/%d/io", pid))
	h0 := readHost()
	t0 := time.Now()
	sl := runWindow(l, 1, b.window, func() float64 { return threadCPU(pid) }, nil)[0]
	wn.secs = time.Since(t0).Seconds()
	h1 := readHost()
	io1, err2 := procFields(fmt.Sprintf("/proc/%d/io", pid))
	m1, err3 := scrape(srv.httpAddr)
	status, err4 := procFields(fmt.Sprintf("/proc/%d/status", pid))
	l.finish()
	wn.r = l.result()
	b.account(wn.r)
	if recN > 0 {
		b.recorded = l.rec
	}
	if err := errors.Join(err0, err1, err2, err3, err4); err != nil {
		return nil, err
	}
	wn.m = m1.since(m0)
	wn.io = make(map[string]float64)
	for k, v := range io1 {
		wn.io[k] = v - io0[k]
	}
	wn.ops = wn.m.ops()
	if wn.ops <= 0 {
		return nil, fmt.Errorf("no operations answered in the window")
	}
	wn.serverCPU, wn.loadCPU = sl.serverCPU, sl.loadCPU
	wn.rssMB = status["VmHWM"] / 1024
	wn.stealPct = h0.stealPct(h1)
	logWindow("btserved", wn.r.lat[0], wn.ops, wn.secs)
	logAnswers(wn.r)
	fmt.Printf("cpu: btserved %.3f us/op, load process %.3f us/op; %s\n",
		1e6*wn.serverCPU/float64(wn.ops), wn.loadUsPerOp(), h0.describe(h1))
	if b.w.engine == "disk" {
		fmt.Printf("checkpoints in the window: %d\n", wn.m.Checkpoints)
	}
	return wn, nil
}

// logWindow prints what is logged but not gated: throughput and p99,
// with their sample counts.
func logWindow(what string, lat [nClasses][]uint32, ops int64, secs float64) {
	fmt.Printf("%s: %d ops in %.2fs = %.0f ops/s (logged, not gated)\n", what, ops, secs, float64(ops)/secs)
	for cl, name := range []string{"read", "write", "scan"} {
		if len(lat[cl]) > 0 {
			fmt.Printf("  %-5s n=%d p50 %.1fus p99 %.1fus (p99 logged, not gated)\n",
				name, len(lat[cl]), quantileUs(lat[cl], 0.5), quantileUs(lat[cl], 0.99))
		}
	}
}

// logAnswers prints how the answers of a phase checked out.
func logAnswers(r loadResult) {
	fmt.Printf("  answers: %d attempted, %d wrong, %d shed, %d unanswered\n",
		r.attempted, r.wrong, r.shed, r.attempted-r.completed)
}

// quantileUs returns the q-quantile of ns latencies in µs (sorting them).
func quantileUs(ns []uint32, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	return float64(ns[int(q*float64(len(ns)-1))]) / 1e3
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEnd measures setup_s over setupRuns launches, then one window of
// the last server with tracing off.
func (b *bench) endToEnd() error {
	path := filepath.Join(b.dir, "pristine", "t.db")
	var setups []float64
	var srv *btserved
	for i := 0; i < setupRuns; i++ {
		s, d, err := launch(b.bin, b.serverArgs(path), filepath.Join(b.dir, "btserved.log"))
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			if err := s.stop(); err != nil {
				return err
			}
			continue
		}
		srv = s
	}
	fmt.Printf("setup: %.3f s (median of %d)\n", setups, len(setups))
	wn, err := b.measure(srv, 0)
	if stopErr := srv.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	// The host's speed drifts by up to a quarter between runs, moving raw
	// CPU times and closed-loop latencies with it; the load process's own
	// CPU per op in the same window drifts with it, so the gated metrics
	// are expressed in that yardstick (NOTES.md).
	load := wn.loadUsPerOp()
	b.set("setup_s", median(setups), "s")
	b.set("server_cpu_per_load_cpu", wn.serverCPU/wn.loadCPU, "ratio")
	for cl, name := range []string{"read", "write", "scan"} {
		b.set(name+"_p50_per_load_cpu", quantileUs(wn.r.lat[0][cl], 0.5)/load, "ratio")
	}
	b.set("server_rss_mb", wn.rssMB, "MB")
	fmt.Printf("op_fail_frac %.6f (%d of %d)\n",
		float64(b.res.Failed)/float64(max(b.res.Attempted, 1)), b.res.Failed, b.res.Attempted)
	return nil
}
