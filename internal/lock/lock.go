// Package lock provides a strictly first-come-first-served reader/writer
// mutex for real goroutines — the real-time counterpart of the FCFS lock
// queues in the paper's model (and of des.RWLock in the simulator).
//
// Unlike sync.RWMutex, whose acquisition order under contention is
// unspecified, FCFSRWMutex grants requests in arrival order: a reader that
// arrives behind a queued writer waits for that writer even though it is
// compatible with the current holders. This is the discipline the paper's
// analysis assumes, and it is starvation-free for both classes.
//
// Because the lock queue IS the object the paper analyzes, the mutex also
// measures itself: every instance counts acquisitions and accumulates
// queue-wait nanoseconds per class (see WaitStats), and an optional Probe
// can stream wait, hold-time, and writer-presence telemetry into a shared
// per-level accumulator so a live system can estimate the model's λ_r,
// λ_w, μ_r, μ_w, and ρ_w from its own lock queues.
package lock

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Probe receives telemetry from one or more FCFSRWMutexes (typically all
// node locks of one B-tree level share a Probe). Implementations must be
// safe for concurrent use and cheap: WriterPresence is called with the
// mutex's internal spinlock held, Acquired and Released just after it is
// dropped.
//
// What the mutex reports exactly and what it samples:
//
//   - Exact: every acquisition (Acquired, with its queue wait), every
//     release (Released), every writer hold time, and writer presence
//     (WriterPresence). Writer events and queued requests read the clock
//     on every transition.
//   - Sampled: the reader hold integral, the only quantity that would need
//     a clock read on the uncontended reader path. A busy period (from
//     idle to idle again) is timed with probability 1/SamplePeriod, drawn
//     when the lock goes from idle to busy, so the draw is independent of
//     what happens inside the period. Reader holds in a drawn period carry
//     weight SamplePeriod. Once a request queues in a period, every reader
//     hold acquired from then to the end of the period is timed with
//     weight 1: the queued path reads the clock anyway, and a saturated
//     lock, whose busy periods are few and long, still yields reader
//     samples in every window. Readers already holding when the queue
//     forms keep the period's draw (FCFS keeps new readers behind the
//     queued request until they have all released).
//
// Every reader hold is thus timed with a known probability, 1/SamplePeriod
// or 1, and reported with weight equal to its inverse (0 when untimed), so
// Σ weight·heldNs estimates the total reader hold time and Σ weight the
// reader release count without bias; their ratio is the mean reader hold
// (1/μ_r). A reader-only busy period that never idles is timed only if its
// opening draw came up.
//
// Measured error (replay_test.go, tree traffic on a virtual clock): within
// 5% of the every-hold mean at every level of a read-mostly link-type
// replay, and within 6% at the root of a lock-coupling replay whose root
// ρ_w is near .95. Heavy-tailed holds in unqueued periods, such as a
// preempted reader's, are where it is weakest: one such hold, timed at
// weight SamplePeriod or missed, moved the lock-coupling estimates below
// the root by 10–60%.
type Probe interface {
	// Acquired is called once per acquisition. waitNs is the time the
	// request spent queued; an uncontended acquire reports 0.
	Acquired(write bool, waitNs int64)
	// Released is called once per release. weight is 0 for an untimed
	// reader hold; otherwise heldNs is the class's hold time accrued since
	// its previous timed release (the integral of the timed-holder count,
	// so it sums to the timed holds' total) and weight is the inverse of
	// the probability that the hold was timed. Writer holds are always
	// timed: weight 1, heldNs the hold's duration.
	Released(write bool, heldNs, weight int64)
	// WriterPresence reports nanoseconds during which at least one writer
	// was active or queued — the measured counterpart of the model's ρ_w
	// when divided by elapsed wall-clock time.
	WriterPresence(ns int64)
}

// SamplePeriod is N: an unqueued busy period has its reader holds timed
// with probability 1/N. A power of two.
const SamplePeriod = 16

// samplePeriod is SamplePeriod; a variable only so that a test integrating
// a handful of holds can time every period.
var samplePeriod uint32 = SamplePeriod

// monoBase anchors an allocation-free monotonic clock: time.Since on a
// time.Time with a monotonic reading compiles to a nanotime call.
var monoBase = time.Now()

func monotime() int64 { return int64(time.Since(monoBase)) }

// nanotime is the probe's clock; a variable only so that tests can script
// exact hold and wait times.
var nanotime = monotime

// Timing state of a busy period (see Probe).
const (
	periodUntimed uint8 = iota // reader holds not timed
	periodSampled              // drawn at idle→busy: reader holds timed, weight SamplePeriod
	periodQueued               // a request queued: later reader holds timed, weight 1
)

// FCFSRWMutex is a fair FIFO reader/writer mutex. The zero value is ready
// to use. It must not be copied after first use.
type FCFSRWMutex struct {
	mu      sync.Mutex
	readers int  // active readers
	writer  bool // active writer
	queue   []*waiter

	acquiredR  atomic.Int64
	acquiredW  atomic.Int64
	contendedR atomic.Int64
	contendedW atomic.Int64
	waitNsR    atomic.Int64
	waitNsW    atomic.Int64

	// Probe state, guarded by mu and active only when probe != nil.
	probe      Probe
	period     uint8 // timing state of the current busy period
	legacyR    int   // in a queued period, readers active since before the queue formed
	legacyWt   int64 // their weight: SamplePeriod if the period was drawn, else 0
	holdStamp  int64 // last charge of the reader hold integral
	pendR      int64 // timed reader hold ns accrued since the last timed reader release
	wGrant     int64 // when the active writer was granted
	wPresent   int   // writers active or queued
	wPresStamp int64 // when wPresent last rose above 0 or was last flushed
}

type waiter struct {
	ready chan struct{}
	write bool
	t0    int64 // enqueue time (nanotime), for queue-wait measurement
}

// SetProbe attaches a telemetry probe. It must be called before the mutex
// is used concurrently (e.g. right after creating the structure the lock
// guards); passing nil detaches. Counts, queue waits, writer holds and
// writer presence are exact: writer events and queued requests read the
// clock on every transition. Reader hold time is sampled: an uncontended
// reader reads the clock only in the 1-in-SamplePeriod (1 in 16) busy
// periods drawn for timing; Probe states the estimator and its measured
// error. Without a probe only the always-on WaitStats counters are
// maintained.
func (l *FCFSRWMutex) SetProbe(p Probe) {
	l.mu.Lock()
	l.probe = p
	// Re-anchor the integrals so a probe attached to a live lock does not
	// inherit time accrued before attachment. Readers already active stay
	// untimed.
	now := nanotime()
	l.holdStamp = now
	l.wGrant = now
	l.wPresStamp = now
	l.pendR = 0
	l.period, l.legacyR, l.legacyWt = periodUntimed, 0, 0
	if len(l.queue) > 0 {
		l.period, l.legacyR = periodQueued, l.readers
	}
	l.wPresent = 0
	if l.writer {
		l.wPresent++
	}
	for _, w := range l.queue {
		if w.write {
			l.wPresent++
		}
	}
	l.mu.Unlock()
}

// timedReadersLocked is the number of active readers whose hold time the
// current busy period integrates.
func (l *FCFSRWMutex) timedReadersLocked() int64 {
	if l.period == periodUntimed || (l.legacyR > 0 && l.legacyWt == 0) {
		return 0
	}
	return int64(l.readers)
}

// chargeReadersLocked accrues timed reader hold time since the last
// charge. Called with l.mu held, only when l.probe != nil.
func (l *FCFSRWMutex) chargeReadersLocked(now int64) {
	if dt := now - l.holdStamp; dt > 0 {
		l.pendR += l.timedReadersLocked() * dt
	}
	l.holdStamp = now
}

// queueFormingLocked switches a busy period to timing every later reader
// hold when a request is about to queue in it. Called with l.mu held, only
// when l.probe != nil.
func (l *FCFSRWMutex) queueFormingLocked(now int64) {
	if l.period == periodQueued {
		return
	}
	l.chargeReadersLocked(now)
	l.legacyR, l.legacyWt = l.readers, 0
	if l.period == periodSampled {
		l.legacyWt = int64(samplePeriod)
	}
	l.period = periodQueued
}

// releaseReaderLocked ends one reader hold and returns its sample: the
// timed reader hold ns accrued since the last timed release and the
// hold's weight (0 when untimed). Called with l.mu held, only when
// l.probe != nil.
func (l *FCFSRWMutex) releaseReaderLocked() (heldNs, weight int64) {
	switch {
	case l.period == periodUntimed:
	case l.period == periodSampled:
		weight = int64(samplePeriod)
	case l.legacyR > 0:
		weight = l.legacyWt
	default:
		weight = 1
	}
	if weight > 0 {
		l.chargeReadersLocked(nanotime())
		heldNs, l.pendR = l.pendR, 0
	}
	if l.legacyR > 0 {
		l.legacyR--
	}
	l.readers--
	return heldNs, weight
}

// writerArrivedLocked notes a writer entering the system (active or
// queued), flushing the presence integral so it stays fresh under
// sustained load. Called with l.mu held, only when l.probe != nil.
func (l *FCFSRWMutex) writerArrivedLocked(now int64) {
	if l.wPresent == 0 {
		l.wPresStamp = now
	} else {
		l.probe.WriterPresence(now - l.wPresStamp)
		l.wPresStamp = now
	}
	l.wPresent++
}

// writerGoneLocked notes a writer leaving the system (release, since a
// queued writer always becomes active). Called with l.mu held, only when
// l.probe != nil.
func (l *FCFSRWMutex) writerGoneLocked(now int64) {
	l.probe.WriterPresence(now - l.wPresStamp)
	l.wPresStamp = now
	l.wPresent--
}

// RLock acquires the lock shared. It blocks while a writer holds the lock
// or any request (of either class) is queued ahead.
func (l *FCFSRWMutex) RLock() {
	l.mu.Lock()
	if !l.writer && len(l.queue) == 0 {
		if p := l.probe; p != nil {
			if l.readers == 0 {
				// Idle to busy: draw whether this period is timed.
				l.period, l.legacyR = periodUntimed, 0
				if rand.Uint32()&(samplePeriod-1) == 0 {
					l.period = periodSampled
				}
			}
			if l.period != periodUntimed {
				l.chargeReadersLocked(nanotime())
			}
			l.readers++
			l.mu.Unlock()
			l.acquiredR.Add(1)
			p.Acquired(false, 0)
			return
		}
		l.readers++
		l.mu.Unlock()
		l.acquiredR.Add(1)
		return
	}
	w := &waiter{ready: make(chan struct{}), write: false, t0: nanotime()}
	l.queue = append(l.queue, w)
	p := l.probe
	if p != nil {
		l.queueFormingLocked(w.t0)
	}
	l.mu.Unlock()
	l.contendedR.Add(1)
	<-w.ready
	wait := nanotime() - w.t0
	l.acquiredR.Add(1)
	l.waitNsR.Add(wait)
	if p != nil {
		p.Acquired(false, wait)
	}
}

// RUnlock releases a shared hold.
func (l *FCFSRWMutex) RUnlock() {
	l.mu.Lock()
	if l.readers <= 0 {
		l.mu.Unlock()
		panic("lock: RUnlock without RLock")
	}
	p := l.probe
	if p == nil {
		l.readers--
		l.dispatchLocked()
		l.mu.Unlock()
		return
	}
	heldNs, weight := l.releaseReaderLocked()
	l.dispatchLocked()
	l.mu.Unlock()
	p.Released(false, heldNs, weight)
}

// Lock acquires the lock exclusive, in FIFO order.
func (l *FCFSRWMutex) Lock() {
	l.mu.Lock()
	if !l.writer && l.readers == 0 && len(l.queue) == 0 {
		// Idle to busy with no draw: every reader of a writer's period
		// queues, and the queue switches the period to timing them all.
		p := l.probe
		if p != nil {
			l.grantWriterLocked()
		}
		l.writer = true
		l.mu.Unlock()
		l.acquiredW.Add(1)
		if p != nil {
			p.Acquired(true, 0)
		}
		return
	}
	w := &waiter{ready: make(chan struct{}), write: true, t0: nanotime()}
	l.queue = append(l.queue, w)
	p := l.probe
	if p != nil {
		l.queueFormingLocked(w.t0)
		l.writerArrivedLocked(w.t0)
	}
	l.mu.Unlock()
	l.contendedW.Add(1)
	<-w.ready
	wait := nanotime() - w.t0
	l.acquiredW.Add(1)
	l.waitNsW.Add(wait)
	if p != nil {
		p.Acquired(true, wait)
	}
}

// grantWriterLocked starts an uncontended writer hold's clocks. Called
// with l.mu held, only when l.probe != nil.
func (l *FCFSRWMutex) grantWriterLocked() {
	now := nanotime()
	l.wGrant = now
	l.writerArrivedLocked(now)
}

// Unlock releases an exclusive hold.
func (l *FCFSRWMutex) Unlock() {
	l.mu.Lock()
	if !l.writer {
		l.mu.Unlock()
		panic("lock: Unlock without Lock")
	}
	l.writer = false
	p := l.probe
	var heldNs int64
	if p != nil {
		now := nanotime()
		heldNs = now - l.wGrant
		l.writerGoneLocked(now)
	}
	l.dispatchLocked()
	l.mu.Unlock()
	if p != nil {
		p.Released(true, heldNs, 1)
	}
}

// dispatchLocked grants the longest-waiting compatible prefix of the
// queue: one writer, or a run of readers up to the first queued writer.
// Called with l.mu held.
func (l *FCFSRWMutex) dispatchLocked() {
	if l.writer {
		return
	}
	granted := 0
	for _, w := range l.queue {
		if w.write {
			if granted == 0 && l.readers == 0 {
				if l.probe != nil {
					l.wGrant = nanotime()
				}
				l.writer = true
				close(w.ready)
				granted = 1
			}
			break
		}
		if l.probe != nil && granted == 0 {
			l.chargeReadersLocked(nanotime())
		}
		l.readers++
		close(w.ready)
		granted++
	}
	if granted > 0 {
		l.queue = l.queue[granted:]
	}
}

// Contended reports how many acquisitions of each class had to queue.
func (l *FCFSRWMutex) Contended() (r, w int64) {
	return l.contendedR.Load(), l.contendedW.Load()
}

// WaitStats is a snapshot of a mutex's always-on counters.
type WaitStats struct {
	AcquiredR  int64 // shared acquisitions
	AcquiredW  int64 // exclusive acquisitions
	ContendedR int64 // shared acquisitions that queued
	ContendedW int64 // exclusive acquisitions that queued
	WaitNsR    int64 // cumulative shared queue-wait nanoseconds
	WaitNsW    int64 // cumulative exclusive queue-wait nanoseconds
}

// WaitStats returns a snapshot of the acquisition and queue-wait counters.
// The fields are loaded individually, so the snapshot is not a consistent
// cut under concurrent traffic — each counter is exact, their relative
// skew is bounded by in-flight operations.
func (l *FCFSRWMutex) WaitStats() WaitStats {
	return WaitStats{
		AcquiredR:  l.acquiredR.Load(),
		AcquiredW:  l.acquiredW.Load(),
		ContendedR: l.contendedR.Load(),
		ContendedW: l.contendedW.Load(),
		WaitNsR:    l.waitNsR.Load(),
		WaitNsW:    l.waitNsW.Load(),
	}
}

// TryLock acquires the exclusive lock only if it is immediately available
// and no request is queued.
func (l *FCFSRWMutex) TryLock() bool {
	l.mu.Lock()
	if l.writer || l.readers > 0 || len(l.queue) > 0 {
		l.mu.Unlock()
		return false
	}
	p := l.probe
	if p != nil {
		l.grantWriterLocked() // idle to busy with no draw, as in Lock
	}
	l.writer = true
	l.mu.Unlock()
	l.acquiredW.Add(1)
	if p != nil {
		p.Acquired(true, 0)
	}
	return true
}
