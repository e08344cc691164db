package main

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"btreeperf/internal/server"
)

var clockBase = time.Now()

// nanotime is monotonic nanoseconds since the process started.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// Latency classes.
const (
	classRead = iota
	classWrite
	classScan
	nClasses
)

func classOf(kind byte) int {
	switch kind {
	case server.OpGet:
		return classRead
	case server.OpScan:
		return classScan
	default:
		return classWrite
	}
}

// flight is one request on the wire.
type flight struct {
	o    op
	sent int64
}

// connStats is what one connection observed. Latencies are kept only for
// requests sent and answered inside the measured window.
type connStats struct {
	attempted, completed int64
	shed, wrong          int64
	lat                  [][nClasses][]uint32 // ns, by slice of the window
	pages, pageKeys      int64                // scan pages answered in the window
	firstErr             error
}

// exchange is one recorded request and its response (codec replay).
type exchange struct {
	o    op
	resp server.Response
}

// load is one closed-loop phase: conns connections, each with depth
// requests in flight, drawing ops from their generators and checking
// every answer against the table model.
type load struct {
	w     *workload
	tab   *table
	seed  uint64
	trace *tracer // request spans; nil = untraced
	rec   []exchange
	recN  int // exchanges to record from connection 0

	winStart, winEnd atomic.Int64 // measured window (nanotime); 0 = unset
	sliceNs          int64        // the window is cut into slices this long
	slices           int
	stop             atomic.Bool
	conns            []net.Conn
	wg               sync.WaitGroup
	stats            [conns]connStats
}

// startLoad dials addr and starts the connections. With trace set, the
// requests answered inside the window are recorded as spans; recN
// exchanges of connection 0 are kept for the codec replay.
func startLoad(addr string, w *workload, tab *table, seed uint64, trace *tracer, recN int) (*load, error) {
	l := &load{w: w, tab: tab, seed: seed, trace: trace, recN: recN}
	var ncs []net.Conn
	for c := 0; c < conns; c++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			for _, nc := range ncs {
				nc.Close()
			}
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		nc.(*net.TCPConn).SetNoDelay(true)
		ncs = append(ncs, nc)
	}
	l.conns = ncs
	for c, nc := range ncs {
		l.wg.Add(1)
		go l.run(c, nc)
	}
	return l, nil
}

// openWindow starts the measured window: n slices of length d.
func (l *load) openWindow(n int, d time.Duration) {
	l.sliceNs, l.slices = int64(d), n
	for i := range l.stats {
		l.stats[i].lat = make([][nClasses][]uint32, n)
	}
	l.winStart.Store(nanotime()) // publishes the slices to the receivers
}

func (l *load) closeWindow() { l.winEnd.Store(nanotime()) }

// slice returns the window slice a request sent at sent and answered at
// now is counted in, or -1 when it does not lie inside the window.
func (l *load) slice(sent, now int64) int {
	s := l.winStart.Load()
	e := l.winEnd.Load()
	if s == 0 || sent < s || e != 0 && now > e {
		return -1
	}
	return min(int((now-s)/l.sliceNs), l.slices-1)
}

// finish stops sending, waits for every in-flight answer and closes the
// connections. A server that stops answering fails the reads after 10 s
// instead of hanging the run.
func (l *load) finish() {
	l.stop.Store(true)
	for _, nc := range l.conns {
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	}
	l.wg.Wait()
}

func (l *load) run(c int, nc net.Conn) {
	defer l.wg.Done()
	defer nc.Close()
	st := &l.stats[c]
	gen := newGenerator(l.w, l.seed, c)
	credits := make(chan struct{}, depth)
	for i := 0; i < depth; i++ {
		credits <- struct{}{}
	}
	pending := make(chan int, depth) // at most depth in flight
	recvDone := make(chan struct{})
	var ring [2 * depth]flight
	var completed atomic.Int64

	go func() {
		defer close(recvDone)
		br := bufio.NewReaderSize(nc, 32<<10)
		rbuf := make([]byte, server.MaxPayload)
		for slot := range pending {
			f := ring[slot]
			var resp server.Response
			var err error
			if f.o.kind == server.OpScan {
				resp, err = server.ReadPageResponse(br, rbuf)
			} else {
				resp, err = server.ReadResponse(br, rbuf)
			}
			now := nanotime()
			if err != nil {
				st.firstErr = fmt.Errorf("connection %d: %w", c, err)
				return
			}
			l.account(c, st, f, resp, now)
			completed.Add(1)
			credits <- struct{}{}
		}
	}()

	bw := bufio.NewWriterSize(nc, 16<<10)
	buf := make([]byte, 0, 64)
	var attempted int64
send:
	for !l.stop.Load() {
		select {
		case <-credits:
		default:
			if bw.Flush() != nil {
				break send
			}
			select {
			case <-credits:
			case <-recvDone:
				break send
			}
		}
		o := gen.next()
		if o.mutation() {
			l.tab.begin(o.row)
		}
		slot := int(attempted % int64(len(ring)))
		ring[slot] = flight{o: o, sent: nanotime()}
		buf = server.AppendRequest(buf[:0], o.request(l.w.scanLimit))
		bw.Write(buf) // a write error resurfaces at the next Flush
		pending <- slot
		attempted++
	}
	bw.Flush()
	close(pending)
	<-recvDone
	st.attempted = attempted
	st.completed = completed.Load()
}

// account checks one answer against the model and records it.
func (l *load) account(c int, st *connStats, f flight, resp server.Response, now int64) {
	var err error
	switch f.o.kind {
	case server.OpGet:
		err = l.tab.checkGet(f.o.row, f.sent, resp)
	case server.OpScan:
		err = l.tab.checkScan(f.o, l.w.scanLimit, f.sent, resp)
	default:
		err = l.tab.finish(f.o, resp.Status, now)
	}
	if err != nil {
		st.wrong++
		if st.firstErr == nil {
			st.firstErr = err
		}
	}
	if resp.Status == server.StatusBusy || resp.Status == server.StatusOverload {
		st.shed++
	}
	if c == 0 && len(l.rec) < l.recN {
		l.rec = append(l.rec, exchange{o: f.o, resp: resp})
	}
	sl := l.slice(f.sent, now)
	if sl < 0 {
		return
	}
	cl := classOf(f.o.kind)
	st.lat[sl][cl] = append(st.lat[sl][cl], uint32(min(now-f.sent, 1<<32-1)))
	if l.trace != nil && l.trace.on.Load() {
		l.trace.request(f.o.kind, f.sent, now)
	}
	if cl == classScan {
		st.pages++
		st.pageKeys += int64(len(resp.Entries))
	}
}

// loadResult merges the connections' statistics.
type loadResult struct {
	attempted, completed, shed, wrong int64
	lat                               [][nClasses][]uint32 // by slice
	pages, pageKeys                   int64
	err                               error
}

func (r *loadResult) failed() int64 {
	return r.shed + r.wrong + (r.attempted - r.completed)
}

func (l *load) result() loadResult {
	r := loadResult{lat: make([][nClasses][]uint32, l.slices)}
	for i := range l.stats {
		st := &l.stats[i]
		r.attempted += st.attempted
		r.completed += st.completed
		r.shed += st.shed
		r.wrong += st.wrong
		r.pages += st.pages
		r.pageKeys += st.pageKeys
		for sl := range st.lat {
			for cl := range st.lat[sl] {
				r.lat[sl][cl] = append(r.lat[sl][cl], st.lat[sl][cl]...)
			}
		}
		if r.err == nil {
			r.err = st.firstErr
		}
	}
	return r
}

// pooled returns the latencies answered in the given slices, by class.
func (r *loadResult) pooled(slices []int) [nClasses][]uint32 {
	var out [nClasses][]uint32
	for _, sl := range slices {
		for cl := range out {
			out[cl] = append(out[cl], r.lat[sl][cl]...)
		}
	}
	return out
}
