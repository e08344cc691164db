package lock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestUncontendedZeroWait verifies the satellite requirement: acquisitions
// that never queue record zero cumulative queue-wait in both classes.
func TestUncontendedZeroWait(t *testing.T) {
	var l FCFSRWMutex
	for i := 0; i < 100; i++ {
		l.RLock()
		l.RUnlock()
		l.Lock()
		l.Unlock()
		if !l.TryLock() {
			t.Fatal("TryLock failed on a free lock")
		}
		l.Unlock()
	}
	ws := l.WaitStats()
	if ws.WaitNsR != 0 || ws.WaitNsW != 0 {
		t.Fatalf("uncontended acquires recorded wait: R=%dns W=%dns", ws.WaitNsR, ws.WaitNsW)
	}
	if ws.ContendedR != 0 || ws.ContendedW != 0 {
		t.Fatalf("uncontended acquires counted as contended: %+v", ws)
	}
	if ws.AcquiredR != 100 || ws.AcquiredW != 200 {
		t.Fatalf("acquisition counts R=%d W=%d, want 100/200", ws.AcquiredR, ws.AcquiredW)
	}
}

// TestContendedWaitAccumulates verifies that a queued acquisition records
// a plausible nonzero wait.
func TestContendedWaitAccumulates(t *testing.T) {
	var l FCFSRWMutex
	l.Lock()
	done := make(chan struct{})
	go func() {
		l.RLock()
		l.RUnlock()
		close(done)
	}()
	for {
		if r, _ := l.Contended(); r == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	l.Unlock()
	<-done
	ws := l.WaitStats()
	if ws.WaitNsR < int64(5*time.Millisecond) {
		t.Fatalf("queued reader recorded %dns wait, want >= 5ms", ws.WaitNsR)
	}
	if ws.ContendedR != 1 || ws.AcquiredR != 1 {
		t.Fatalf("counters %+v", ws)
	}
}

// countProbe is a minimal Probe accumulating everything atomically; held
// and timed sums are weighted as in metrics.LevelStats.
type countProbe struct {
	acqR, acqW     atomic.Int64
	waitR, waitW   atomic.Int64
	heldR, heldW   atomic.Int64
	timedR, timedW atomic.Int64
	relR, relW     atomic.Int64
	present        atomic.Int64
}

func (p *countProbe) Acquired(write bool, waitNs int64) {
	if write {
		p.acqW.Add(1)
		p.waitW.Add(waitNs)
	} else {
		p.acqR.Add(1)
		p.waitR.Add(waitNs)
	}
}

func (p *countProbe) Released(write bool, heldNs, weight int64) {
	if write {
		p.heldW.Add(weight * heldNs)
		p.timedW.Add(weight)
		p.relW.Add(1)
	} else {
		p.heldR.Add(weight * heldNs)
		p.timedR.Add(weight)
		p.relR.Add(1)
	}
}

func (p *countProbe) WriterPresence(ns int64) { p.present.Add(ns) }

// TestProbeHoldIntegral checks that the per-class hold integrals reported
// through a Probe match the true hold durations: a writer holding for ~20ms
// and two overlapping readers each holding ~10ms. Three holds are too few
// for a sampled estimate, so every busy period is timed.
func TestProbeHoldIntegral(t *testing.T) {
	timeEveryPeriod(t)
	var l FCFSRWMutex
	p := &countProbe{}
	l.SetProbe(p)

	l.Lock()
	time.Sleep(20 * time.Millisecond)
	l.Unlock()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.RLock()
			time.Sleep(10 * time.Millisecond)
			l.RUnlock()
		}()
	}
	wg.Wait()

	if got := p.heldW.Load(); got < int64(15*time.Millisecond) {
		t.Errorf("writer hold integral %v, want >= 15ms", time.Duration(got))
	}
	// Two readers × ~10ms each: the integral sums individual holds even
	// when they overlap in wall-clock time.
	if got := p.heldR.Load(); got < int64(15*time.Millisecond) {
		t.Errorf("reader hold integral %v, want >= 15ms", time.Duration(got))
	}
	if p.relR.Load() != 2 || p.relW.Load() != 1 {
		t.Errorf("release counts R=%d W=%d, want 2/1", p.relR.Load(), p.relW.Load())
	}
	// Writer presence covers at least the exclusive hold.
	if got := p.present.Load(); got < int64(15*time.Millisecond) {
		t.Errorf("writer presence %v, want >= 15ms", time.Duration(got))
	}
	if p.acqR.Load() != 2 || p.acqW.Load() != 1 {
		t.Errorf("acquire counts R=%d W=%d, want 2/1", p.acqR.Load(), p.acqW.Load())
	}
}

// TestProbeConcurrentCounts ensures WaitStats and the probe agree on
// acquisition counts under concurrent traffic, and that every release is
// reported although most reader holds go untimed.
func TestProbeConcurrentCounts(t *testing.T) {
	var l FCFSRWMutex
	p := &countProbe{}
	l.SetProbe(p)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		write := i%2 == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if write {
					l.Lock()
					l.Unlock()
				} else {
					l.RLock()
					l.RUnlock()
				}
			}
		}()
	}
	wg.Wait()
	ws := l.WaitStats()
	if p.acqR.Load() != ws.AcquiredR || p.acqW.Load() != ws.AcquiredW {
		t.Fatalf("probe acq R=%d W=%d, WaitStats %+v", p.acqR.Load(), p.acqW.Load(), ws)
	}
	if ws.AcquiredR != 4*500 || ws.AcquiredW != 4*500 {
		t.Fatalf("acquired R=%d W=%d, want 2000/2000", ws.AcquiredR, ws.AcquiredW)
	}
	if p.relR.Load() != 2000 || p.relW.Load() != 2000 {
		t.Fatalf("releases R=%d W=%d", p.relR.Load(), p.relW.Load())
	}
}
